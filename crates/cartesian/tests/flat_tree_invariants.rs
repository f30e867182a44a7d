//! Flat-tree arena invariants: the CSR schedule arena must produce the
//! exact plans the seed's pointer tree produced.
//!
//! The allgather routing tree was rebuilt from a per-node
//! `children: Vec<(i64, usize)>` pointer tree into a contiguous CSR arena
//! (one node vec + one shared children slab). These tests pin that the
//! refactor is *observationally invisible*: for every stencil family the
//! paper evaluates — plus an asymmetric upwind neighborhood — the arena
//! tree yields identical `(rounds, volume, per-phase C_k)` counts, an
//! identical rank-independent plan structure, and identical compiled span
//! programs for every rank of a concrete torus.
//!
//! Golden fingerprints were generated from the seed's pointer-tree
//! implementation (FNV-1a over the full structural content, stable across
//! platforms and rustc versions) before the arena landed; re-bless with
//! `BLESS_GOLDEN=1 cargo test --test flat_tree_invariants -- --nocapture`
//! only when the schedule itself intentionally changes.

use cartcomm::exec::{BlockLayout, ExecLayouts};
use cartcomm::schedule::{
    allgather_plan_with_order, allreduce_plan, alltoall_plan, reduce_scatter_plan, DimOrder,
};
use cartcomm::{CompiledPlan, Loc, Plan, PlanKind};
use cartcomm_topo::{CartTopology, RelNeighborhood};

/// FNV-1a 64 over a u64 stream (mirrors the compiler's internal hasher so
/// goldens are portable).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn i64(&mut self, v: i64) {
        self.u64(v as u64)
    }
}

fn loc_tag(loc: Loc) -> u64 {
    match loc {
        Loc::Send => 1,
        Loc::Recv => 2,
        Loc::Temp => 3,
    }
}

/// Structural fingerprint of a rank-independent plan: every phase, copy,
/// round offset, and wire-ordered block list contributes.
fn plan_fingerprint(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    h.u64(match plan.kind {
        PlanKind::Alltoall => 1,
        PlanKind::Allgather => 2,
        PlanKind::ReduceScatter => 3,
        PlanKind::Allreduce => 4,
    });
    h.u64(plan.ndims as u64);
    h.u64(plan.t as u64);
    h.u64(plan.temp_slots as u64);
    h.u64(plan.rounds as u64);
    h.u64(plan.volume_blocks as u64);
    for phase in &plan.phases {
        h.u64(0xFACE);
        for c in &phase.copies {
            h.u64(0xC0);
            h.u64(loc_tag(c.from.loc));
            h.u64(c.from.slot as u64);
            h.u64(loc_tag(c.to.loc));
            h.u64(c.to.slot as u64);
        }
        for r in &phase.rounds {
            h.u64(0xF0);
            for &o in &r.offset {
                h.i64(o);
            }
            for j in 0..r.block_ids.len() {
                h.u64(loc_tag(r.sends[j].loc));
                h.u64(r.sends[j].slot as u64);
                h.u64(loc_tag(r.recvs[j].loc));
                h.u64(r.recvs[j].slot as u64);
                h.u64(r.block_ids[j] as u64);
            }
        }
    }
    h.0
}

/// Contiguous layouts with temp sizing, mirroring the library's regular
/// path (`ops::regular_layouts` + `ops::size_temp`), so compiled programs
/// here match what `CartComm::allgather`/`alltoall` execute.
fn layouts(plan: &Plan, block_bytes: usize) -> ExecLayouts {
    let t = plan.t;
    let blocks: Vec<BlockLayout> = (0..t)
        .map(|i| BlockLayout::contiguous((i * block_bytes) as i64, block_bytes))
        .collect();
    let single = vec![BlockLayout::contiguous(0, block_bytes)];
    let send = match plan.kind {
        PlanKind::Alltoall | PlanKind::ReduceScatter => blocks.clone(),
        PlanKind::Allgather | PlanKind::Allreduce => single.clone(),
    };
    let recv = match plan.kind {
        PlanKind::Alltoall | PlanKind::Allgather => blocks,
        PlanKind::ReduceScatter | PlanKind::Allreduce => single,
    };
    let lay = ExecLayouts {
        send,
        recv,
        block_bytes: vec![block_bytes; t],
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    };
    lay.with_temp_sizes(vec![block_bytes; plan.temp_slots])
}

/// Fingerprint of the compiled span programs of *all* ranks of `topo`,
/// combined order-sensitively.
fn compiled_fingerprint(topo: &CartTopology, plan: &Plan, block_bytes: usize) -> u64 {
    let lay = layouts(plan, block_bytes);
    let mut h = Fnv::new();
    let p: usize = topo.dims().iter().product();
    for rank in 0..p {
        let cp = CompiledPlan::compile(topo, rank, plan, &lay, 0x7A00_0000).unwrap();
        h.u64(rank as u64);
        h.u64(cp.program_fingerprint());
    }
    h.0
}

struct Case {
    name: &'static str,
    dims: &'static [usize],
    nb: fn() -> RelNeighborhood,
}

/// An asymmetric upwind neighborhood: strictly "upstream" neighbors with
/// mixed hop counts and a duplicate-coordinate column, exercising temp
/// forwarder nodes and fill copies in the allgather tree.
fn upwind_2d() -> RelNeighborhood {
    RelNeighborhood::new(
        2,
        vec![
            vec![-1, 0],
            vec![-2, 0],
            vec![0, -1],
            vec![-1, -1],
            vec![-2, -1],
        ],
    )
    .unwrap()
}

fn upwind_3d() -> RelNeighborhood {
    RelNeighborhood::new(
        3,
        vec![
            vec![-1, 0, 0],
            vec![-2, 0, 0],
            vec![0, -1, 0],
            vec![0, 0, -1],
            vec![-1, -1, 0],
            vec![-1, 0, -1],
            vec![-2, -1, -1],
        ],
    )
    .unwrap()
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "moore2d",
            dims: &[4, 4],
            nb: || RelNeighborhood::moore(2, 1).unwrap(),
        },
        Case {
            name: "moore3d",
            dims: &[3, 3, 3],
            nb: || RelNeighborhood::moore(3, 1).unwrap(),
        },
        Case {
            name: "vonneumann2d",
            dims: &[4, 4],
            nb: || RelNeighborhood::von_neumann(2, 1).unwrap(),
        },
        Case {
            name: "vonneumann3d",
            dims: &[3, 3, 3],
            nb: || RelNeighborhood::von_neumann(3, 1).unwrap(),
        },
        Case {
            name: "upwind2d",
            dims: &[5, 4],
            nb: upwind_2d,
        },
        Case {
            name: "upwind3d",
            dims: &[4, 3, 3],
            nb: upwind_3d,
        },
    ]
}

/// Golden row: counts and fingerprints captured from the seed's pointer
/// tree. Per case: (name, rounds, volume, phase C_k, plan fp per DimOrder
/// [IncreasingCk, Given, DecreasingCk], compiled fp of the IncreasingCk
/// allgather at 24 B blocks, alltoall plan fp, alltoall compiled fp). The
/// reduce-scatter and allreduce columns were re-blessed when the root's
/// partial sum moved into `Recv(0)`: each plan has one copy fewer.
struct Golden {
    name: &'static str,
    rounds: usize,
    volume: usize,
    phase_rounds: &'static [usize],
    ag_plan_fp: [u64; 3],
    ag_compiled_fp: u64,
    a2a_plan_fp: u64,
    a2a_compiled_fp: u64,
    rs_plan_fp: u64,
    rs_compiled_fp: u64,
    ar_plan_fp: u64,
    ar_compiled_fp: u64,
}

const BLOCK_BYTES: usize = 24;

#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    Golden { name: "moore2d", rounds: 4, volume: 8, phase_rounds: &[2, 2], ag_plan_fp: [0x5A9B3C038A60497F, 0x5A9B3C038A60497F, 0x5A9B3C038A60497F], ag_compiled_fp: 0xE2FAE7493F030021, a2a_plan_fp: 0x48A23E8F8EF5665E, a2a_compiled_fp: 0x987D0EE325DE89A2, rs_plan_fp: 0xCD11A4140730E1E6, rs_compiled_fp: 0x0DC48B31B0A5D238, ar_plan_fp: 0x6760ABE7BBC1DDFF, ar_compiled_fp: 0xA6D9DF3ADA467288 },
    Golden { name: "moore3d", rounds: 6, volume: 26, phase_rounds: &[2, 2, 2], ag_plan_fp: [0x928BC23F905E1F61, 0x928BC23F905E1F61, 0x928BC23F905E1F61], ag_compiled_fp: 0x2524848D0921EFD1, a2a_plan_fp: 0xA32D96D5D48251E7, a2a_compiled_fp: 0x4F66AB70F6505419, rs_plan_fp: 0x800D950B0D38C9F6, rs_compiled_fp: 0x65207E6AB91D9401, ar_plan_fp: 0xC341C6A520DDCA1F, ar_compiled_fp: 0x067E20E699B064A7 },
    Golden { name: "vonneumann2d", rounds: 4, volume: 4, phase_rounds: &[2, 2], ag_plan_fp: [0xA77C418323449335, 0xA77C418323449335, 0xA77C418323449335], ag_compiled_fp: 0xAC9863F3488F8FB6, a2a_plan_fp: 0x2CAF881602A4E676, a2a_compiled_fp: 0x279EEE43F255EB2B, rs_plan_fp: 0xC7975EA98CFD3580, rs_compiled_fp: 0x86230798B1962D67, ar_plan_fp: 0x0F68C30A38927488, ar_compiled_fp: 0x5D23CE5C51DEA751 },
    Golden { name: "vonneumann3d", rounds: 6, volume: 6, phase_rounds: &[2, 2, 2], ag_plan_fp: [0xA4A279AFD185787F, 0xA4A279AFD185787F, 0xA4A279AFD185787F], ag_compiled_fp: 0x4EA44B73EA19B1ED, a2a_plan_fp: 0xD309059B4E6324F3, a2a_compiled_fp: 0xD9447ED2A65EC647, rs_plan_fp: 0x113993EE7BE4135C, rs_compiled_fp: 0x642077F089FA1D5B, ar_plan_fp: 0xCFC2AAE557C37ED7, ar_compiled_fp: 0xD5049762C7582718 },
    Golden { name: "upwind2d", rounds: 3, volume: 5, phase_rounds: &[1, 2], ag_plan_fp: [0xF634015CEBA4F350, 0x7247D929E04955F1, 0x7247D929E04955F1], ag_compiled_fp: 0xEA6474FED2BF2ECA, a2a_plan_fp: 0x710022A7387C9B2F, a2a_compiled_fp: 0xFC0D8CEF8EA6F121, rs_plan_fp: 0x42E1D4E26C0CA81C, rs_compiled_fp: 0x9A3D1CC38D521FEB, ar_plan_fp: 0xF1E4E7A42C5F7073, ar_compiled_fp: 0xF3F52E43392605F4 },
    Golden { name: "upwind3d", rounds: 4, volume: 8, phase_rounds: &[1, 1, 2], ag_plan_fp: [0x44D4859AC7E9B72A, 0x4B9DC78C3F72BE34, 0x4B9DC78C3F72BE34], ag_compiled_fp: 0xBCD34B3EBD23A0DF, a2a_plan_fp: 0xBF08C8A4DBE212A8, a2a_compiled_fp: 0xF3DDB642C0D13461, rs_plan_fp: 0xFC49008B52143170, rs_compiled_fp: 0x14BA004ECEF49A61, ar_plan_fp: 0x007A1B4D2E017885, ar_compiled_fp: 0x9619C53F3B262473 },
];

fn bless() -> bool {
    std::env::var("BLESS_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn arena_tree_matches_seed_pointer_tree_goldens() {
    for case in cases() {
        let nb = (case.nb)();
        let topo = CartTopology::new(case.dims, &vec![true; case.dims.len()]).unwrap();

        let ag = allgather_plan_with_order(&nb, DimOrder::IncreasingCk);
        let phase_rounds: Vec<usize> = ag.phases.iter().map(|p| p.rounds.len()).collect();
        let ag_plan_fp = [
            plan_fingerprint(&ag),
            plan_fingerprint(&allgather_plan_with_order(&nb, DimOrder::Given)),
            plan_fingerprint(&allgather_plan_with_order(&nb, DimOrder::DecreasingCk)),
        ];
        let ag_compiled_fp = compiled_fingerprint(&topo, &ag, BLOCK_BYTES);

        let a2a = alltoall_plan(&nb);
        let a2a_plan_fp = plan_fingerprint(&a2a);
        let a2a_compiled_fp = compiled_fingerprint(&topo, &a2a, BLOCK_BYTES);

        let rs = reduce_scatter_plan(&nb);
        let rs_plan_fp = plan_fingerprint(&rs);
        let rs_compiled_fp = compiled_fingerprint(&topo, &rs, BLOCK_BYTES);

        let ar = allreduce_plan(&nb);
        let ar_plan_fp = plan_fingerprint(&ar);
        let ar_compiled_fp = compiled_fingerprint(&topo, &ar, BLOCK_BYTES);

        if bless() {
            println!(
                "Golden {{ name: \"{}\", rounds: {}, volume: {}, phase_rounds: &{:?}, \
                 ag_plan_fp: [{:#018X}, {:#018X}, {:#018X}], ag_compiled_fp: {:#018X}, \
                 a2a_plan_fp: {:#018X}, a2a_compiled_fp: {:#018X}, \
                 rs_plan_fp: {:#018X}, rs_compiled_fp: {:#018X}, \
                 ar_plan_fp: {:#018X}, ar_compiled_fp: {:#018X} }},",
                case.name,
                ag.rounds,
                ag.volume_blocks,
                phase_rounds,
                ag_plan_fp[0],
                ag_plan_fp[1],
                ag_plan_fp[2],
                ag_compiled_fp,
                a2a_plan_fp,
                a2a_compiled_fp,
                rs_plan_fp,
                rs_compiled_fp,
                ar_plan_fp,
                ar_compiled_fp,
            );
            continue;
        }

        let g = GOLDENS
            .iter()
            .find(|g| g.name == case.name)
            .unwrap_or_else(|| panic!("no golden for {}", case.name));
        assert_eq!(ag.rounds, g.rounds, "{}: allgather rounds", case.name);
        assert_eq!(
            ag.volume_blocks, g.volume,
            "{}: allgather volume",
            case.name
        );
        assert_eq!(phase_rounds, g.phase_rounds, "{}: per-phase C_k", case.name);
        assert_eq!(ag_plan_fp, g.ag_plan_fp, "{}: allgather plan fp", case.name);
        assert_eq!(
            ag_compiled_fp, g.ag_compiled_fp,
            "{}: allgather compiled fp",
            case.name
        );
        assert_eq!(
            a2a_plan_fp, g.a2a_plan_fp,
            "{}: alltoall plan fp",
            case.name
        );
        assert_eq!(
            a2a_compiled_fp, g.a2a_compiled_fp,
            "{}: alltoall compiled fp",
            case.name
        );
        assert_eq!(
            rs_plan_fp, g.rs_plan_fp,
            "{}: reduce_scatter plan fp",
            case.name
        );
        assert_eq!(
            rs_compiled_fp, g.rs_compiled_fp,
            "{}: reduce_scatter compiled fp",
            case.name
        );
        assert_eq!(ar_plan_fp, g.ar_plan_fp, "{}: allreduce plan fp", case.name);
        assert_eq!(
            ar_compiled_fp, g.ar_compiled_fp,
            "{}: allreduce compiled fp",
            case.name
        );
    }
}

/// Independently of the goldens: the arena plan must satisfy the same
/// internal invariants the seed's tree satisfied, for every dimension
/// order (validate() + routing counts).
#[test]
fn arena_plans_validate_for_all_orders() {
    for case in cases() {
        let nb = (case.nb)();
        for order in [
            DimOrder::IncreasingCk,
            DimOrder::Given,
            DimOrder::DecreasingCk,
        ] {
            let plan = allgather_plan_with_order(&nb, order);
            plan.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert_eq!(plan.rounds, nb.combining_rounds(), "{}", case.name);
        }
        for plan in [reduce_scatter_plan(&nb), allreduce_plan(&nb)] {
            plan.validate()
                .unwrap_or_else(|e| panic!("{} ({:?}): {e}", case.name, plan.kind));
            assert_eq!(
                plan.rounds,
                nb.negated().combining_rounds(),
                "{}",
                case.name
            );
        }
    }
}
