//! The communication-schedule representation shared by the trivial and
//! message-combining algorithms.
//!
//! A [`Plan`] is rank-independent: it is expressed entirely in *relative*
//! offset vectors and block indices, because every process in a Cartesian
//! collective executes the exact same sequence of send-receive rounds (§3).
//! [`crate::compile::CompiledPlan`] instantiates it for a concrete rank
//! once — each round's offset resolved to `(send rank, receive rank)` with
//! the relative shift of Listing 2, each [`BlockRef`] to a `(buffer,
//! displacement, datatype)` triple, and on a mesh the copies, halves and
//! blocks a boundary cuts off dropped — those none of whose [`Pairs`] lie
//! inside it — and the result is executed repeatedly.

use cartcomm_topo::Offset;

/// Which buffer a block reference addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// The user's send buffer (block indexed by neighbor for alltoall; the
    /// single contributed block for allgather).
    Send,
    /// The user's receive buffer, block indexed by neighbor.
    Recv,
    /// The internal temporary buffer, slot indexed by the plan.
    Temp,
}

/// A reference to one data block in one of the three buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// Which buffer.
    pub loc: Loc,
    /// Slot within the buffer: the neighbor index for [`Loc::Send`] /
    /// [`Loc::Recv`] (alltoall), the receive-block index for [`Loc::Recv`]
    /// (allgather), or the temp-slot id for [`Loc::Temp`].
    pub slot: usize,
}

impl BlockRef {
    /// Shorthand constructor.
    pub const fn new(loc: Loc, slot: usize) -> Self {
        BlockRef { loc, slot }
    }
}

/// The pairs one block movement serves: those of its plan's [`Pairs`]
/// from `.0` up to `.1`.
pub type Serves = (u32, u32);

/// Every (source, target) neighbor pair a plan's movements serve, `2·d`
/// coordinates a pair: the offsets of its two ends from the process that
/// holds the block before the movement — a round's sender, a copy's own
/// process. Which end is which matters only to a block's final delivery;
/// a movement is live where both ends of one of its pairs exist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pairs {
    d: usize,
    ends: Vec<i64>,
}

impl Pairs {
    pub fn new(d: usize) -> Self {
        Pairs { d, ends: vec![] }
    }

    /// The two ends of pair `p`.
    pub fn get(&self, p: u32) -> (&[i64], &[i64]) {
        self.ends[2 * self.d * p as usize..][..2 * self.d].split_at(self.d)
    }

    fn len(&self) -> u32 {
        (self.ends.len() / (2 * self.d).max(1)) as u32
    }

    /// Push the pairs of the blocks of offsets `offsets`, routed dimension
    /// by dimension with the dimensions `done` behind them: a source lies
    /// at `−o` in those, its target at `o` in the rest.
    pub(crate) fn serve<'o>(
        &mut self,
        offsets: impl IntoIterator<Item = &'o [i64]>,
        done: &[usize],
    ) -> Serves {
        let start = self.len();
        for o in offsets {
            self.ends
                .extend((0..self.d).map(|k| if done.contains(&k) { -o[k] } else { 0 }));
            self.ends
                .extend((0..self.d).map(|k| if done.contains(&k) { 0 } else { o[k] }));
        }
        (start, self.len())
    }

    /// Push the pairs of `serves` seen from `hop` past their holder.
    pub(crate) fn shifted(&mut self, serves: Serves, hop: &[i64]) -> Serves {
        let (start, d) = (self.len(), self.d);
        for i in 2 * d * serves.0 as usize..2 * d * serves.1 as usize {
            self.ends.push(self.ends[i] - hop[i % d]);
        }
        (start, self.len())
    }
}

/// A local block movement that needs no communication (the "possibly one
/// non-communication phase" of Proposition 3.1: self-blocks, and
/// zero-coordinate tree edges of the allgather schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalCopy {
    /// Source block.
    pub from: BlockRef,
    /// Destination block.
    pub to: BlockRef,
    /// The pairs it serves.
    pub serves: Serves,
}

/// One send-receive round: its blocks travel together to the relative
/// process `offset` (and arrive from `-offset`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRound {
    /// The relative offset vector of this round: non-zero in exactly one
    /// dimension (the paper's `N[i']ₖ⁰`) in a combining schedule, a whole
    /// neighbor offset `N[i]` in the trivial one.
    pub offset: Offset,
    /// Blocks gathered into the outgoing message, in wire order.
    pub sends: Vec<BlockRef>,
    /// Blocks the incoming message scatters into, in wire order.
    pub recvs: Vec<BlockRef>,
    /// The neighbor indices whose data volume travels in this round (for
    /// sizing the wire; `sends[i]` carries the bytes of block
    /// `block_ids[i]`).
    pub block_ids: Vec<usize>,
    /// The pairs each wire block serves.
    pub serves: Vec<Serves>,
}

/// One communication phase (one dimension): its rounds are independent and
/// may execute concurrently (non-blocking, Listing 5), preceded by any
/// local copies that become possible at this phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanPhase {
    /// Local copies executed at the start of the phase.
    pub copies: Vec<LocalCopy>,
    /// The phase's communication rounds.
    pub rounds: Vec<PlanRound>,
}

/// Which collective a plan implements (affects how block sizes resolve).
/// `Hash` feeds the communicator's compiled-plan cache fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Personalized blocks: send slot `i` and receive slot `i` hold block
    /// `i`'s bytes; temp slot `i` matches block `i`'s size.
    Alltoall,
    /// One replicated block: every wire block has the size of the single
    /// send block; temp slots are forwarding nodes of the routing tree.
    Allgather,
    /// Personalized contributions funnel inward along the reversed
    /// allgather tree: send slot `i` holds the block destined for
    /// neighbor `i`'s result, the single receive slot accumulates the
    /// combined arrivals. All blocks share one uniform size; the first
    /// write to a slot assigns, later writes combine with the reducer
    /// supplied at execution time.
    ReduceScatter,
    /// One contributed block per process, one receive slot holding the
    /// elementwise reduction over the process and its source neighbors.
    /// Every leaf of the reversed tree carries the same block, so equal
    /// subtrees hold equal partial sums and the combining schedule sends
    /// each distinct one once (rounds may gather straight from the send
    /// block, and from the slot they fold into). Same uniform sizing and
    /// first-write-assigns semantics as [`PlanKind::ReduceScatter`]; in
    /// both, the root's partial sum accumulates in the receive slot
    /// itself, so rounds read and write `Recv(0)` and no temp slot is
    /// sized for it.
    Allreduce,
}

impl PlanKind {
    /// Whether writes in this plan combine with a reducer (first write
    /// to a slot assigns, subsequent writes reduce).
    pub const fn is_reduction(self) -> bool {
        matches!(self, PlanKind::ReduceScatter | PlanKind::Allreduce)
    }

    /// The kind's number in every fingerprint and store key.
    pub const fn code(self) -> u64 {
        self as u64 + 1
    }
}

/// Which algorithm laid a plan's rounds out — with [`PlanKind`], the
/// identity of a schedule over one neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Listing 4: one single-block round per neighbor, straight to it.
    Trivial,
    /// §3: dimension-wise routing, one combined message per distinct
    /// coordinate.
    Combining,
}

/// A complete, rank-independent communication schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Which collective the plan implements.
    pub kind: PlanKind,
    /// Which algorithm built it.
    pub schedule: Schedule,
    /// The number of dimensions `d` of the underlying topology.
    pub ndims: usize,
    /// The number of neighbors `t`.
    pub t: usize,
    /// The communication phases in execution order.
    pub phases: Vec<PlanPhase>,
    /// Number of temporary-buffer slots the executor must provide.
    pub temp_slots: usize,
    /// Total communication rounds `C` (Props. 3.2/3.3).
    pub rounds: usize,
    /// Per-process communication volume in blocks `V` (Props. 3.2/3.3):
    /// the number of block-sends the schedule performs.
    pub volume_blocks: usize,
    /// What its movements serve, read only where a mesh boundary clips it.
    pub pairs: Pairs,
}

impl Plan {
    /// Recompute `rounds` from the phases (used as an internal invariant
    /// check; equals the stored value for well-formed plans).
    pub fn count_rounds(&self) -> usize {
        self.phases.iter().map(|p| p.rounds.len()).sum()
    }

    /// Recompute the block volume from the phases.
    pub fn count_volume(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| r.sends.len())
            .sum()
    }

    /// All local copies across phases.
    pub fn all_copies(&self) -> impl Iterator<Item = &LocalCopy> {
        self.phases.iter().flat_map(|p| &p.copies)
    }

    /// Internal consistency checks used by tests and debug builds:
    /// * every round's `sends`, `recvs`, `block_ids`, `serves` have equal length,
    /// * every round offset is non-zero — in exactly one dimension in a
    ///   combining schedule,
    /// * stored counters match the recomputed ones,
    /// * temp slot ids are in range.
    pub fn validate(&self) -> Result<(), String> {
        for (pi, phase) in self.phases.iter().enumerate() {
            for (ri, round) in phase.rounds.iter().enumerate() {
                if round.sends.len() != round.recvs.len()
                    || round.sends.len() != round.block_ids.len()
                    || round.sends.len() != round.serves.len()
                {
                    return Err(format!(
                        "phase {pi} round {ri}: mismatched send/recv/block lists"
                    ));
                }
                if round.sends.is_empty() {
                    return Err(format!("phase {pi} round {ri}: empty round"));
                }
                let nz = round.offset.iter().filter(|&&c| c != 0).count();
                if nz == 0 || (nz != 1 && self.schedule == Schedule::Combining) {
                    return Err(format!(
                        "phase {pi} round {ri}: offset {:?} must be non-zero in exactly one dimension",
                        round.offset
                    ));
                }
                for br in round.sends.iter().chain(round.recvs.iter()) {
                    if br.loc == Loc::Temp && br.slot >= self.temp_slots {
                        return Err(format!(
                            "phase {pi} round {ri}: temp slot {} out of range {}",
                            br.slot, self.temp_slots
                        ));
                    }
                }
            }
            for c in &phase.copies {
                for br in [c.from, c.to] {
                    if br.loc == Loc::Temp && br.slot >= self.temp_slots {
                        return Err(format!("phase {pi}: copy temp slot out of range"));
                    }
                }
            }
        }
        if self.count_rounds() != self.rounds {
            return Err(format!(
                "stored rounds {} != actual {}",
                self.rounds,
                self.count_rounds()
            ));
        }
        if self.count_volume() != self.volume_blocks {
            return Err(format!(
                "stored volume {} != actual {}",
                self.volume_blocks,
                self.count_volume()
            ));
        }
        Ok(())
    }

    /// Bytes on the wire per round, given the size of each neighbor block
    /// (every wire slot of a round names the block it carries). What prices
    /// a plan — trivial or combining, for `Algo::Auto`, the simulator, the
    /// figures and the cost tables alike: hand the result to
    /// `cartcomm_comm::obs::price`.
    pub fn round_bytes(&self, block_bytes: &dyn Fn(usize) -> usize) -> Vec<usize> {
        self.phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| r.block_ids.iter().map(|&b| block_bytes(b)).sum())
            .collect()
    }
}

impl std::fmt::Display for Plan {
    /// Human-readable schedule dump: one line per round with the relative
    /// offset, partner directions, and the blocks on the wire — the
    /// "arrays of datatypes and ranks" view of §3.4.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:?} schedule: d={}, t={}, C={} rounds, V={} blocks, {} temp slots",
            self.kind, self.ndims, self.t, self.rounds, self.volume_blocks, self.temp_slots
        )?;
        for (k, phase) in self.phases.iter().enumerate() {
            writeln!(f, "phase {k}:")?;
            for copy in &phase.copies {
                writeln!(
                    f,
                    "  copy  {:?}[{}] -> {:?}[{}]",
                    copy.from.loc, copy.from.slot, copy.to.loc, copy.to.slot
                )?;
            }
            for round in &phase.rounds {
                write!(f, "  round offset {:?}:", round.offset)?;
                for (j, &b) in round.block_ids.iter().enumerate() {
                    write!(
                        f,
                        " [{}:{:?}[{}]->{:?}[{}]]",
                        b,
                        round.sends[j].loc,
                        round.sends[j].slot,
                        round.recvs[j].loc,
                        round.recvs[j].slot
                    )?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> Plan {
        Plan {
            kind: PlanKind::Alltoall,
            schedule: Schedule::Combining,
            ndims: 2,
            t: 2,
            phases: vec![PlanPhase {
                copies: vec![],
                rounds: vec![PlanRound {
                    offset: vec![1, 0],
                    sends: vec![BlockRef::new(Loc::Send, 0)],
                    recvs: vec![BlockRef::new(Loc::Recv, 0)],
                    block_ids: vec![0],
                    serves: vec![(0, 0)],
                }],
            }],
            temp_slots: 0,
            rounds: 1,
            volume_blocks: 1,
            pairs: Pairs::new(2),
        }
    }

    #[test]
    fn valid_plan_passes() {
        assert!(tiny_plan().validate().is_ok());
    }

    #[test]
    fn counter_mismatch_detected() {
        let mut p = tiny_plan();
        p.rounds = 7;
        assert!(p.validate().unwrap_err().contains("rounds"));
        let mut p = tiny_plan();
        p.volume_blocks = 9;
        assert!(p.validate().unwrap_err().contains("volume"));
    }

    #[test]
    fn multi_axis_offset_rejected() {
        let mut p = tiny_plan();
        p.phases[0].rounds[0].offset = vec![1, 1];
        assert!(p.validate().is_err());
        p.phases[0].rounds[0].offset = vec![0, 0];
        assert!(p.validate().is_err());
        // A trivial round goes straight to its neighbor, along any axes.
        p.schedule = Schedule::Trivial;
        assert!(
            p.validate().is_err(),
            "a zero offset is a copy, not a round"
        );
        p.phases[0].rounds[0].offset = vec![1, 1];
        assert!(p.validate().is_ok());
    }

    #[test]
    fn temp_slot_bounds_checked() {
        let mut p = tiny_plan();
        p.phases[0].rounds[0].sends = vec![BlockRef::new(Loc::Temp, 3)];
        assert!(p.validate().is_err());
    }

    #[test]
    fn mismatched_lists_rejected() {
        let mut p = tiny_plan();
        p.phases[0].rounds[0].block_ids = vec![0, 1];
        assert!(p.validate().is_err());
        let mut p = tiny_plan();
        p.phases[0].rounds[0].serves.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn a_pair_has_one_end_behind_and_the_other_ahead() {
        let mut pairs = Pairs::new(3);
        let o = [1, -2, 3];
        assert_eq!(pairs.serve([&o[..], &o[..]], &[1]), (0, 2));
        assert_eq!(pairs.get(1), (&[0, 2, 0][..], &[1, 0, 3][..]));
        assert_eq!(pairs.shifted((1, 2), &[1, 0, 0]), (2, 3));
        assert_eq!(pairs.get(2), (&[-1, 2, 0][..], &[0, 0, 3][..]));
    }

    #[test]
    fn round_bytes_sums_block_sizes() {
        let p = tiny_plan();
        let sizes = p.round_bytes(&|_b| 40);
        assert_eq!(sizes, vec![40]);
    }

    #[test]
    fn display_shows_rounds_and_counters() {
        let p = tiny_plan();
        let s = p.to_string();
        assert!(s.contains("C=1 rounds"));
        assert!(s.contains("V=1 blocks"));
        assert!(s.contains("offset [1, 0]"));
    }
}
