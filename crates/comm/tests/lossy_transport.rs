//! Loss and recovery below the mailbox: what a fabric built lossy owes
//! every deposit, exchange or not, on a serializing backend as on the
//! in-process one.

use std::time::Duration;

use cartcomm_comm::envelope::Envelope;
use cartcomm_comm::fabric::Fabric;
use cartcomm_comm::{
    FaultSpec, LinkSel, RelHeader, RetryPolicy, TransportError, TransportKind, Universe,
};

mod common;

fn policy(attempts: u32, base_ms: u64) -> RetryPolicy {
    RetryPolicy {
        attempts,
        base: Duration::from_millis(base_ms),
        ..RetryPolicy::default()
    }
}

#[test]
fn unscoped_loss_reaches_all_traffic_and_all_of_it_arrives() {
    // A fifth of *every* deposit is dropped: no tag or context scoping
    // keeps the barrier, the broadcast or the point-to-point sends clean.
    let spec = FaultSpec::new(0xA11).drop_rate(LinkSel::any(), 0.2);
    common::watchdog(|| {
        let drops = Universe::builder(4)
            .faults(spec, policy(12, 5))
            .run(|comm| {
                comm.barrier().unwrap();
                let mut data = vec![comm.rank() as u8; 9];
                comm.bcast_bytes(2, &mut data).unwrap();
                assert_eq!(data, vec![2u8; 9]);
                let (peer, first) = (comm.rank() ^ 1, comm.rank() % 2 == 0);
                for i in 0..20u8 {
                    if first {
                        comm.send_bytes(peer, 5, vec![i; 3]).unwrap();
                    }
                    assert_eq!(comm.recv_bytes(peer, 5).unwrap().0, vec![i; 3]);
                    if !first {
                        comm.send_bytes(peer, 5, vec![i; 3]).unwrap();
                    }
                }
                comm.barrier().unwrap();
                comm.fault_stats().unwrap().drops
            });
        assert!(drops[0] > 0, "a 20 % plane dropped nothing");
    });
}

#[test]
fn a_dead_link_is_unacked_after_exactly_its_attempts() {
    for kind in [TransportKind::InProcess, TransportKind::Uds] {
        common::watchdog(move || {
            let spec = FaultSpec::new(11).drop_rate(LinkSel::link(0, 1), 1.0);
            let fabric = Fabric::lossy(kind, 2, spec, policy(3, 2)).unwrap();
            let dead = fabric.deposit(1, Envelope::new(0, 0, 5, vec![9u8; 10]));
            let (peer, attempts) = (1, 3);
            assert_eq!(dead, Err(TransportError::Unacked { peer, attempts }));
            assert_eq!(fabric.fault_stats().unwrap().drops, 3, "backend {kind}");
            assert!(fabric.mailbox(1).try_pop().is_none());
            // Three transmissions are one deposit and two retransmits.
            let sender = fabric.obs(0).snapshot();
            assert_eq!((sender.wire_bytes_sent, sender.retransmits), (10, 2));

            // The reverse direction is clean: a deposit that returned is in
            // the mailbox, once, and looks like raw traffic.
            let back = Envelope::new(0, 1, 5, vec![7u8]);
            fabric.deposit(0, back).unwrap();
            let env = fabric.mailbox(0).try_pop().expect("acknowledged");
            assert_eq!((env.src, env.rel), (1, RelHeader::default()));
            assert_eq!(env.data, vec![7u8]);
            assert!(fabric.mailbox(0).try_pop().is_none());
            (0..2).for_each(|rank| fabric.rank_done(rank));
        });
    }
}

#[test]
fn a_duplicate_and_delay_storm_delivers_once_and_in_deposit_order() {
    // Half of the deposits grow a copy that trails them by two polls, half
    // of the rest are held for three.
    let spec = FaultSpec::new(3)
        .dup_rate(LinkSel::any(), 0.5, 2)
        .delay_rate(LinkSel::any(), 0.5, 3);
    common::watchdog(|| {
        let fabric = Fabric::lossy(TransportKind::InProcess, 2, spec, policy(8, 50)).unwrap();
        for n in 0..60u32 {
            let env = Envelope::new(0, 0, n, vec![n as u8]);
            fabric.deposit(1, env).unwrap();
        }
        // Every copy the plane made has to come out of it and be refused
        // (the watchdog bounds the wait).
        let dups = fabric.fault_stats().unwrap().dups;
        assert!(dups > 0, "the plane duplicated nothing");
        while fabric.obs(1).snapshot().dup_drops < dups {
            std::thread::sleep(Duration::from_millis(1));
        }
        for n in 0..60u32 {
            let env = fabric.mailbox(1).try_pop().expect("every deposit arrived");
            assert_eq!((env.tag, env.data.as_ref()), (n, &[n as u8][..]));
        }
        assert!(fabric.mailbox(1).try_pop().is_none(), "a copy got through");
    });
}
