//! BBR (v1-style), adapted to a window-limited sender: a windowed-max
//! bottleneck-bandwidth filter and a windowed-min RTT filter feed a BDP
//! model; the Startup/Drain/ProbeBW/ProbeRTT state machine sets
//! `cwnd = gain × BDP`, so the ACK clock yields `rate ≈ gain × BtlBw`
//! without explicit pacing (the computed pacing rate is surfaced via
//! [`CongestionController::pacing_rate`]).
//!
//! Delivery rate is sampled per ACK from cumulative-ack interarrival, which
//! is the packet-level analogue of delivery-rate sampling; samples enter a
//! Kathleen-Nichols-style 3-slot windowed max filter.

use crate::{CcAlg, CcParams, CongestionController, Window};

/// High gain for Startup: 2/ln 2, fills the pipe in log2(BDP) rounds.
const HIGH_GAIN: f64 = 2.885;
/// ProbeBW gain cycle (applied to the BDP to set cwnd).
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd gain on top of BDP outside Startup, to keep the ACK clock busy.
const CWND_GAIN: f64 = 2.0;
/// Bandwidth filter window, in min-RTT units.
const BW_WINDOW_RTTS: u64 = 10;
/// min-RTT filter window, ns (10 s, as in BBR v1).
const MIN_RTT_WINDOW_NS: u64 = 10_000_000_000;
/// Time spent at the ProbeRTT floor, ns (200 ms).
const PROBE_RTT_NS: u64 = 200_000_000;
/// Startup is declared "full pipe" after this many rounds without 25% growth.
const FULL_BW_ROUNDS: u8 = 3;

/// The BBR state machine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrPhase {
    /// Exponential search for the bottleneck bandwidth.
    Startup,
    /// Drain the queue built during Startup.
    Drain,
    /// Steady state: cycle gains around the estimated BDP.
    ProbeBw,
    /// Periodically shrink the window to re-measure the propagation RTT.
    ProbeRtt,
}

/// One slot of the windowed max filter.
#[derive(Debug, Clone, Copy)]
struct BwSample {
    val: f64,
    at_ns: u64,
}

/// BBR per-flow state.
#[derive(Debug, Clone, Copy)]
pub struct Bbr {
    w: Window,
    phase: BbrPhase,
    /// 3-slot windowed max of delivery-rate samples (best, 2nd, 3rd).
    bw: [BwSample; 3],
    /// Windowed min RTT, ns (u64::MAX until the first sample).
    min_rtt_ns: u64,
    /// When the current min-RTT estimate was last refreshed, ns.
    min_rtt_stamp_ns: u64,
    /// ProbeRTT ends at this time, ns.
    probe_rtt_done_ns: u64,
    /// Last ProbeBW gain-cycle advance, ns.
    cycle_stamp_ns: u64,
    /// Previous cumulative-ACK arrival, ns (0 until the first ACK).
    last_ack_ns: u64,
    /// Best bandwidth seen when the plateau detector last reset.
    full_bw: f64,
    /// cwnd saved on ProbeRTT entry, restored on exit.
    prior_cwnd: f64,
    /// ProbeBW gain-cycle index.
    cycle_idx: u8,
    /// Rounds without 25% bandwidth growth (Startup plateau detector).
    full_bw_rounds: u8,
}

impl Bbr {
    /// Fresh state in Startup.
    pub fn new(p: &CcParams) -> Bbr {
        Bbr {
            w: Window::new(p),
            phase: BbrPhase::Startup,
            bw: [BwSample { val: 0.0, at_ns: 0 }; 3],
            min_rtt_ns: u64::MAX,
            min_rtt_stamp_ns: 0,
            probe_rtt_done_ns: 0,
            cycle_stamp_ns: 0,
            last_ack_ns: 0,
            full_bw: 0.0,
            prior_cwnd: 0.0,
            cycle_idx: 0,
            full_bw_rounds: 0,
        }
    }

    /// Current phase (exposed for tests and reporting).
    pub fn phase(&self) -> BbrPhase {
        self.phase
    }

    /// Filtered bottleneck bandwidth, bytes/sec (0 until a sample exists).
    pub fn btlbw(&self) -> f64 {
        self.bw[0].val
    }

    /// Bandwidth-delay product from the filters, bytes; 0 until both filters
    /// have samples.
    fn bdp(&self) -> f64 {
        if self.bw[0].val <= 0.0 || self.min_rtt_ns == u64::MAX {
            return 0.0;
        }
        self.bw[0].val * (self.min_rtt_ns as f64 / 1e9)
    }

    /// Insert a delivery-rate sample into the 3-slot windowed max filter and
    /// expire slots older than the bandwidth window.
    fn update_bw(&mut self, val: f64, now_ns: u64) {
        let horizon = if self.min_rtt_ns == u64::MAX {
            MIN_RTT_WINDOW_NS
        } else {
            BW_WINDOW_RTTS * self.min_rtt_ns.max(1_000_000)
        };
        let fresh = BwSample { val, at_ns: now_ns };
        if val >= self.bw[0].val || now_ns.saturating_sub(self.bw[0].at_ns) > horizon {
            self.bw = [fresh, self.bw[0], self.bw[1]];
        } else if val >= self.bw[1].val || now_ns.saturating_sub(self.bw[1].at_ns) > horizon {
            self.bw[1] = fresh;
            self.bw[2] = fresh;
        } else if val >= self.bw[2].val || now_ns.saturating_sub(self.bw[2].at_ns) > horizon {
            self.bw[2] = fresh;
        }
        // Keep only in-window slots at the front.
        if now_ns.saturating_sub(self.bw[0].at_ns) > horizon {
            self.bw[0] = self.bw[1];
            self.bw[1] = self.bw[2];
            self.bw[2] = fresh;
        }
    }

    /// Startup plateau detector: a "round" here is each ACK-driven check,
    /// counted only after the filter moved less than 25% since the last
    /// reset — full-pipe after [`FULL_BW_ROUNDS`] such checks.
    fn check_full_pipe(&mut self) {
        if self.bw[0].val > self.full_bw * 1.25 {
            self.full_bw = self.bw[0].val;
            self.full_bw_rounds = 0;
        } else if self.bw[0].val > 0.0 {
            self.full_bw_rounds = self.full_bw_rounds.saturating_add(1);
        }
    }

    /// Enter ProbeRTT if the min-RTT estimate has gone stale.
    fn maybe_probe_rtt(&mut self, p: &CcParams, now_ns: u64) {
        if self.phase == BbrPhase::ProbeRtt || self.min_rtt_stamp_ns == 0 {
            return;
        }
        if now_ns.saturating_sub(self.min_rtt_stamp_ns) > MIN_RTT_WINDOW_NS {
            self.prior_cwnd = self.w.cwnd;
            self.phase = BbrPhase::ProbeRtt;
            let floor_ns = if self.min_rtt_ns == u64::MAX {
                PROBE_RTT_NS
            } else {
                PROBE_RTT_NS.max(self.min_rtt_ns)
            };
            self.probe_rtt_done_ns = now_ns + floor_ns;
            self.w.cwnd = 4.0 * p.mss;
        }
    }
}

impl CongestionController for Bbr {
    fn alg(&self) -> CcAlg {
        CcAlg::Bbr
    }
    fn cwnd(&self) -> f64 {
        self.w.cwnd
    }
    fn ssthresh(&self) -> f64 {
        self.w.ssthresh
    }
    fn pacing_rate(&self) -> Option<f64> {
        if self.bw[0].val > 0.0 {
            let gain = match self.phase {
                BbrPhase::Startup => HIGH_GAIN,
                BbrPhase::Drain => 1.0 / HIGH_GAIN,
                BbrPhase::ProbeBw => CYCLE[self.cycle_idx as usize],
                BbrPhase::ProbeRtt => 1.0,
            };
            Some(gain * self.bw[0].val)
        } else {
            None
        }
    }

    fn on_ack(&mut self, p: &CcParams, newly: u64, now_ns: u64) {
        // Delivery-rate sample from cumulative-ACK interarrival.
        if self.last_ack_ns > 0 && now_ns > self.last_ack_ns {
            let dt = (now_ns - self.last_ack_ns) as f64 / 1e9;
            self.update_bw(newly as f64 / dt, now_ns);
        }
        self.last_ack_ns = now_ns;
        self.maybe_probe_rtt(p, now_ns);
        let bdp = self.bdp();
        match self.phase {
            BbrPhase::Startup => {
                // Exponential growth: double per round (cwnd += acked).
                self.w.cwnd += newly as f64;
                self.check_full_pipe();
                if self.full_bw_rounds >= FULL_BW_ROUNDS {
                    self.phase = BbrPhase::Drain;
                }
            }
            BbrPhase::Drain => {
                if bdp > 0.0 {
                    // Let the queue drain: hold the window at BDP.
                    self.w.cwnd = bdp.max(4.0 * p.mss);
                    self.phase = BbrPhase::ProbeBw;
                    self.cycle_idx = 0;
                    self.cycle_stamp_ns = now_ns;
                }
            }
            BbrPhase::ProbeBw => {
                let rtt = if self.min_rtt_ns == u64::MAX {
                    0
                } else {
                    self.min_rtt_ns
                };
                if rtt > 0 && now_ns.saturating_sub(self.cycle_stamp_ns) > rtt {
                    self.cycle_idx = (self.cycle_idx + 1) % 8;
                    self.cycle_stamp_ns = now_ns;
                }
                if bdp > 0.0 {
                    let gain = CYCLE[self.cycle_idx as usize];
                    // cwnd_gain keeps enough in flight to realize the probe
                    // rate through the ACK clock; the 0.75 phase drains by
                    // clamping below BDP.
                    let target = if gain < 1.0 {
                        gain * bdp
                    } else {
                        gain * CWND_GAIN * bdp / 2.0 + (CWND_GAIN / 2.0 - 0.5) * bdp
                    };
                    self.w.cwnd = target.max(4.0 * p.mss);
                }
            }
            BbrPhase::ProbeRtt => {
                self.w.cwnd = 4.0 * p.mss;
                if now_ns >= self.probe_rtt_done_ns {
                    self.min_rtt_stamp_ns = now_ns;
                    self.phase = if self.full_bw_rounds >= FULL_BW_ROUNDS {
                        self.cycle_stamp_ns = now_ns;
                        BbrPhase::ProbeBw
                    } else {
                        BbrPhase::Startup
                    };
                    self.w.cwnd = self.prior_cwnd.max(4.0 * p.mss);
                }
            }
        }
    }

    fn on_rtt_sample(&mut self, _p: &CcParams, rtt_ns: u64, now_ns: u64, _ce: bool) {
        if rtt_ns <= self.min_rtt_ns
            || now_ns.saturating_sub(self.min_rtt_stamp_ns) > MIN_RTT_WINDOW_NS
        {
            self.min_rtt_ns = rtt_ns;
            self.min_rtt_stamp_ns = now_ns;
        }
    }

    fn on_ece(&mut self, _p: &CcParams) -> bool {
        // BBR v1 is rate-model driven and ignores ECN marks; declining tells
        // the sender not to open a CWR window or count a reduction.
        false
    }

    fn on_loss(&mut self, p: &CcParams, flight: u64) {
        // Packet conservation during recovery: window to what is actually in
        // flight; the model window is restored on exit.
        self.prior_cwnd = self.w.cwnd;
        self.w.ssthresh = (flight as f64 / 2.0).max(2.0 * p.mss);
        self.w.cwnd = (flight as f64).max(4.0 * p.mss);
    }
    fn on_partial_ack(&mut self, p: &CcParams, newly: u64) {
        self.w.partial_ack(p, newly);
    }
    fn on_recovery_dupack(&mut self, p: &CcParams) {
        self.w.cwnd += p.mss;
    }
    fn undo_recovery_dupack(&mut self, p: &CcParams) {
        self.w.cwnd -= p.mss;
    }
    fn on_recovery_exit(&mut self, p: &CcParams) {
        // Restore the model-driven window rather than collapsing to
        // ssthresh: loss does not change the BDP estimate.
        let bdp = self.bdp();
        let target = if bdp > 0.0 {
            CWND_GAIN * bdp
        } else {
            self.prior_cwnd
        };
        self.w.cwnd = target
            .max(self.prior_cwnd.min(self.w.cwnd))
            .max(4.0 * p.mss);
    }
    fn on_rto(&mut self, p: &CcParams, flight: u64) {
        self.w.ssthresh = (flight as f64 / 2.0).max(2.0 * p.mss);
        self.w.cwnd = p.mss;
        // Whole-window loss invalidates the full-pipe conclusion.
        self.full_bw = 0.0;
        self.full_bw_rounds = 0;
        self.phase = BbrPhase::Startup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_params;

    const MS: u64 = 1_000_000;

    /// Scripted delivery-rate trace: a 10 MB/s bottleneck with 1 ms RTT.
    /// ACKs of 1460 B arrive every 146 µs once the pipe is full.
    #[test]
    fn startup_drain_probebw_transitions() {
        let p = test_params();
        let mut b = Bbr::new(&p);
        assert_eq!(b.phase(), BbrPhase::Startup);
        let mut now = MS;
        b.on_rtt_sample(&p, MS, now, false);
        // Constant-rate ACK train: the bandwidth filter stops growing, the
        // plateau detector must fire and leave Startup, then Drain must hand
        // off to ProbeBW once the window sits at the BDP.
        for _ in 0..200 {
            now += 146_000;
            b.on_ack(&p, 1460, now);
            if b.phase() != BbrPhase::Startup {
                break;
            }
        }
        assert_eq!(b.phase(), BbrPhase::Drain, "plateau must end Startup");
        let btlbw = b.btlbw();
        assert!(
            (btlbw - 10e6).abs() < 1e6,
            "filtered bandwidth ≈ 10 MB/s, got {btlbw}"
        );
        now += 146_000;
        b.on_ack(&p, 1460, now);
        assert_eq!(b.phase(), BbrPhase::ProbeBw, "drain hands off to ProbeBW");
        // cwnd is modeled off the ~10 MB/s × 1 ms BDP (10.2 kB): within a
        // small factor, not the 1 MB receive window.
        let bdp = 10e6 * 1e-3;
        assert!(
            b.cwnd() <= 3.0 * bdp && b.cwnd() >= 0.5 * bdp,
            "cwnd {} vs bdp {bdp}",
            b.cwnd()
        );
    }

    #[test]
    fn probe_rtt_entered_when_min_rtt_goes_stale() {
        let p = test_params();
        let mut b = Bbr::new(&p);
        let mut now = MS;
        b.on_rtt_sample(&p, MS, now, false);
        for _ in 0..50 {
            now += 146_000;
            b.on_ack(&p, 1460, now);
        }
        let phase_before = b.phase();
        assert_ne!(phase_before, BbrPhase::ProbeRtt);
        // 10+ seconds with no fresher min-RTT sample.
        now += MIN_RTT_WINDOW_NS + MS;
        b.on_ack(&p, 1460, now);
        assert_eq!(b.phase(), BbrPhase::ProbeRtt);
        assert_eq!(b.cwnd(), 4.0 * p.mss, "window floors during ProbeRTT");
        // After the dwell the phase machine resumes and restores the window.
        now += PROBE_RTT_NS + MS;
        b.on_ack(&p, 1460, now);
        assert_ne!(b.phase(), BbrPhase::ProbeRtt);
        assert!(b.cwnd() >= 4.0 * p.mss);
    }

    #[test]
    fn probebw_gain_cycle_advances_once_per_rtt() {
        let p = test_params();
        let mut b = Bbr::new(&p);
        let mut now = MS;
        b.on_rtt_sample(&p, MS, now, false);
        for _ in 0..200 {
            now += 146_000;
            b.on_ack(&p, 1460, now);
            if b.phase() == BbrPhase::ProbeBw {
                break;
            }
        }
        assert_eq!(b.phase(), BbrPhase::ProbeBw);
        let idx0 = b.cycle_idx;
        // Two min-RTTs later the cycle index must have advanced.
        now += 2 * MS + 146_000;
        b.on_ack(&p, 1460, now);
        assert_ne!(b.cycle_idx, idx0, "gain cycle advances on the RTT clock");
    }

    #[test]
    fn rto_restarts_the_search() {
        let p = test_params();
        let mut b = Bbr::new(&p);
        let mut now = MS;
        b.on_rtt_sample(&p, MS, now, false);
        for _ in 0..200 {
            now += 146_000;
            b.on_ack(&p, 1460, now);
        }
        b.on_rto(&p, 20_000);
        assert_eq!(b.phase(), BbrPhase::Startup);
        assert_eq!(b.cwnd(), p.mss);
    }
}
