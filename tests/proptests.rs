//! Property-based tests of the core invariants, across crates.

use ecn_core::{CoDel, CoDelConfig, CurvyRed, CurvyRedConfig, DualQ, DualQConfig, Pie, PieConfig};
use hadoop_ecn::prelude::*;
use netpacket::{EnqueueOutcome, PacketId, PacketPool, QueueDiscipline};
use proptest::prelude::*;

/// Arbitrary packet kinds weighted like shuffle traffic.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (0u8..10, any::<u64>()).prop_map(|(kind, id)| {
        let (payload, flags, ecn) = match kind {
            0..=5 => (1460, TcpFlags::ACK, EcnCodepoint::Ect0), // ECT data
            6 => (1460, TcpFlags::ACK, EcnCodepoint::NotEct),   // plain-TCP data
            7 => (0, TcpFlags::ACK, EcnCodepoint::NotEct),      // pure ACK
            8 => (0, TcpFlags::ACK | TcpFlags::ECE, EcnCodepoint::NotEct), // ECE ACK
            _ => (0, TcpFlags::ecn_setup_syn(), EcnCodepoint::NotEct), // SYN
        };
        Packet {
            id: PacketId(id),
            flow: FlowId(id % 13),
            src: NodeId(0),
            dst: NodeId(1),
            seq: id,
            ack: 1,
            payload,
            flags,
            ecn,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    })
}

/// Ops: enqueue a packet or dequeue.
#[derive(Debug, Clone)]
enum Op {
    Enq(Packet),
    Deq,
}

fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => arb_packet().prop_map(Op::Enq), 1 => Just(Op::Deq)],
        1..n,
    )
}

/// One of each discipline, with parameters tight enough that a 300-op
/// stream (100 ns apart) reaches every drop path: tail drops everywhere,
/// early drops in the RED family, Curvy RED and PIE, and head drops at
/// dequeue in CoDel and DualQ.
fn qdiscs() -> Vec<Box<dyn QueueDiscipline + Send>> {
    let red = |mode| {
        Box::new(Red::new(
            RedConfig::from_target_delay(
                SimDuration::from_micros(200),
                1_000_000_000,
                1526,
                32,
                mode,
            ),
            7,
        ))
    };
    vec![
        Box::new(DropTail::new(32)),
        red(ProtectionMode::Default),
        red(ProtectionMode::EceBit),
        red(ProtectionMode::AckSyn),
        Box::new(Red::new(
            RedConfig::dctcp_mimic_deployed(
                SimDuration::from_micros(200),
                1_000_000_000,
                1526,
                32,
                ProtectionMode::Default,
            ),
            7,
        )),
        Box::new(SimpleMarking::new(SimpleMarkingConfig {
            capacity_packets: 32,
            threshold_packets: 8,
        })),
        Box::new(CoDel::new(CoDelConfig {
            capacity_packets: 32,
            target: SimDuration::from_nanos(300),
            interval: SimDuration::from_micros(1),
            ecn: true,
            protection: ProtectionMode::Default,
        })),
        Box::new(CurvyRed::new(
            CurvyRedConfig {
                capacity_packets: 32,
                range_packets: 16,
                mark_exponent: 2,
                ecn: true,
                protection: ProtectionMode::Default,
            },
            7,
        )),
        // `mark_ecnth: 1.0` keeps PIE marking ECT data at any probability,
        // so the "ECT data is never early-dropped" property holds for it too.
        Box::new(Pie::new(
            PieConfig {
                capacity_packets: 32,
                target: SimDuration::from_nanos(50),
                t_update: SimDuration::from_nanos(100),
                alpha: 1e8,
                beta: 2e8,
                max_burst: SimDuration::from_nanos(100),
                mark_ecnth: 1.0,
                dq_threshold_bytes: 3000,
                ecn: true,
                protection: ProtectionMode::Default,
            },
            7,
        )),
        Box::new(DualQ::new(DualQConfig {
            capacity_packets: 32,
            target: SimDuration::from_nanos(100),
            t_update: SimDuration::from_nanos(100),
            alpha: 1e8,
            beta: 2e8,
            coupling: 2.0,
            step_threshold: SimDuration::from_nanos(50),
            t_shift: SimDuration::from_nanos(200),
            protection: ProtectionMode::Default,
        })),
    ]
}

/// Drive `q` through `ops` on a local pool, taking each dequeued packet as
/// delivered. `admit` filters which packets are offered. Asserts the
/// conservation check (debug builds) and the handle-ownership rule after
/// every operation: the pool holds exactly the queue's residents, so a drop
/// path that skips its `pool.take` leaks a live packet here, and one that
/// takes twice panics on the stale handle.
/// Returns (offered, accepted, rejected early, delivered).
fn drive(
    q: &mut dyn QueueDiscipline,
    ops: &[Op],
    admit: impl Fn(&Packet) -> bool,
) -> Result<(u64, u64, u64, u64), String> {
    let mut pool = PacketPool::new();
    let (mut offered, mut accepted, mut rejected_early, mut delivered) = (0, 0, 0, 0);
    let mut t = 0u64;
    for op in ops {
        t += 100;
        let now = SimTime::from_nanos(t);
        match op {
            Op::Enq(p) if !admit(p) => {}
            Op::Enq(p) => {
                offered += 1;
                let r = pool.insert(p.clone());
                match q.enqueue(r, &mut pool, now) {
                    o if o.accepted() => accepted += 1,
                    EnqueueOutcome::DroppedEarly => rejected_early += 1,
                    _ => {}
                }
            }
            Op::Deq => {
                if let Some(r) = q.dequeue(&mut pool, now) {
                    delivered += 1;
                    pool.take(r);
                }
            }
        }
        q.debug_verify_conservation();
        prop_assert_eq!(
            pool.live() as u64,
            q.len_packets(),
            "{}: pool and queue disagree on packet ownership",
            q.name()
        );
        prop_assert!(
            q.len_packets() <= q.capacity_packets(),
            "{} exceeded capacity",
            q.name()
        );
    }
    let resident_by_kind: u64 = q.snapshot_kinds(&pool).iter().sum();
    prop_assert_eq!(resident_by_kind, q.len_packets(), "{}", q.name());
    Ok((offered, accepted, rejected_early, delivered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every offered packet is accepted or rejected at
    /// arrival; every accepted packet is delivered, head-dropped at dequeue
    /// (CoDel, DualQ) or still resident; occupancy respects capacity; and at
    /// every step the pool holds exactly the resident packets.
    #[test]
    fn qdisc_conservation(ops in arb_ops(300)) {
        for mut q in qdiscs() {
            let (offered, accepted, rejected_early, delivered) = drive(q.as_mut(), &ops, |_| true)?;
            let s = q.stats();
            let name = q.name();
            prop_assert_eq!(s.enqueued.total(), accepted, "{}", name);
            prop_assert_eq!(accepted + rejected_early + s.dropped_full.total(), offered, "{}", name);
            prop_assert_eq!(s.dequeued.total(), delivered, "{}", name);
            let head_dropped = s.dropped_early.total() - rejected_early;
            prop_assert_eq!(accepted, delivered + head_dropped + q.len_packets(), "{}", name);
        }
    }

    /// The paper's protection hierarchy, as a property: over any traffic,
    /// ack+syn never early-drops ACK/SYN; marking never early-drops at all;
    /// nobody ever early-drops ECT data.
    #[test]
    fn protection_hierarchy(ops in arb_ops(300)) {
        for mut q in qdiscs() {
            // Restrict to ECN-negotiated traffic (no plain-TCP data): the
            // property "data is marked, never early-dropped" is about ECT
            // data specifically.
            drive(q.as_mut(), &ops, |p| p.payload == 0 || p.is_ect())?;
            let s = q.stats();
            prop_assert_eq!(s.dropped_early.get(PacketKind::Data), 0,
                "{}: ECT data must never be early-dropped", q.name());
            let name = q.name();
            if name.starts_with("RED[ack+syn]") {
                prop_assert_eq!(s.dropped_early.get(PacketKind::PureAck), 0);
                prop_assert_eq!(s.dropped_early.get(PacketKind::Syn), 0);
            }
            if name.starts_with("SimpleMarking") {
                prop_assert_eq!(s.dropped_early.total(), 0);
            }
            // Marks only ever land on ECT packets => never on pure ACK/SYN
            // (which are Non-ECT in this traffic model).
            prop_assert_eq!(s.marked.get(PacketKind::PureAck), 0);
            prop_assert_eq!(s.marked.get(PacketKind::Syn), 0);
        }
    }

    /// End-to-end transport invariant: whatever single-flow size we pick, the
    /// receiver ends up with exactly that many bytes, over a lossy RED path.
    #[test]
    fn transfer_is_exact(bytes in 1u64..400_000, seed in 0u64..50) {
        let net = Network::new(ClusterSpec::single_rack(
            2,
            LinkSpec::gbps(1, 5),
            QdiscSpec::Red(RedConfig::from_target_delay(
                SimDuration::from_micros(100),
                1_000_000_000,
                1526,
                16,
                ProtectionMode::Default,
            )),
            seed,
        ));
        let app = StaticFlows::all_at_zero(
            vec![(NodeId(0), NodeId(1), bytes)],
            TcpConfig::with_ecn(EcnMode::Ecn),
        );
        let mut sim = Simulation::new(net, app);
        let report = sim.run();
        prop_assert!(report.app_done);
        prop_assert_eq!(sim.net.total_bytes_received(), bytes);
    }

    /// The latency histogram's mean always lies within [min, max].
    #[test]
    fn histogram_mean_bounded(samples in prop::collection::vec(0u64..10_000_000_000, 1..200)) {
        let mut h = simmetrics::LatencyHistogram::new();
        for s in &samples {
            h.record(SimDuration::from_nanos(*s));
        }
        prop_assert!(h.mean() >= h.min());
        prop_assert!(h.mean() <= h.max());
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    /// Reassembly: any permutation of segments yields the full contiguous
    /// prefix, with nothing left buffered.
    #[test]
    fn reassembly_any_order(perm in Just((0u64..60).collect::<Vec<_>>()).prop_shuffle()) {
        let mut r = tcpstack::Reassembly::new(0);
        for k in &perm {
            r.on_segment(k * 100, (k + 1) * 100);
        }
        prop_assert_eq!(r.rcv_nxt(), 6_000);
        prop_assert_eq!(r.island_count(), 0);
        prop_assert_eq!(r.buffered_bytes(), 0);
    }
}
