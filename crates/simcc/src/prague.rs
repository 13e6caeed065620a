//! TCP Prague-style controller: DCTCP's proportional CE response plus
//! RTT-independence scaling, and the Briscoe/Ahmed classic-ECN-AQM
//! detection ("Fall-back on Detection of a Classic ECN AQM"): a scalable
//! sender expects either no marks or marking concentrated into short
//! near-saturating bursts (step marking at a shallow threshold, so a marked
//! packet always *experienced* the queue that marked it). A classic AQM
//! betrays itself in two ways: RED's probabilistic ramp spreads *sparse*
//! marks over many consecutive RTTs, and its EWMA-averaged queue keeps
//! marking after the real queue has drained — *stale* marks on packets
//! whose RTT shows no queueing delay at all — and its late-engaging signal
//! lets the buffer overflow while it marks, so CE marks and tail drops
//! land in the *same* round (*drop-coupled* marking, the RTT-free
//! signature). Sparse marking alone is not enough, though: the L4S DualQ
//! coupled AQM (RFC 9332) *also* emits a ramp-shaped signal (`p_CL =
//! k·p'`) by design, so a sparse round only counts as classic evidence
//! when its marked packets carried classic-scale RTT inflation over the
//! clean floor — a classic ramp marks from a deep queue, the DualQ
//! coupling marks while the scheduler keeps the L queue shallow. Both
//! RTT-based judgments wait for the clean floor to mature
//! ([`MIN_CLEAN_FLOOR`]): cumulative-ACK RTT samples taken under loss
//! recovery measure head-of-line blocking, not the path. When the round
//! classifier accumulates enough sparse-, stale- or drop-coupled-marking
//! evidence the controller falls back to a Reno-like (halving) CE
//! response so it stops out-competing classic flows through that AQM, and
//! it re-engages the scalable response after the episode ends (several
//! mark-free rounds).

use crate::{CcAlg, CcParams, CongestionController, Window};

/// Target virtual RTT for RTT-independence, ns (25 ms as in Prague).
const RTT_VIRT_NS: f64 = 25_000_000.0;
/// A round's CE fraction strictly below this (and above zero) counts as
/// classic-AQM evidence: step marking at a shallow threshold yields rounds
/// near 0 or near 1, while RED's probabilistic curve lives in between.
const CLASSIC_FRAC_MAX: f64 = 0.35;
/// Accumulated evidence required to declare a classic AQM.
const DETECT_ROUNDS: u32 = 6;
/// Mark-free rounds that end a classic-AQM episode.
const CLEAR_ROUNDS: u32 = 4;
/// An RTT sample completed by a CE-marked packet counts as *stale* when it
/// *undercuts* the connection's observed RTT floor by this factor. A packet
/// marked by an instantaneous-queue scheme stood in a queue at the marking
/// threshold, so its RTT can only sit *above* any propagation floor the
/// connection has observed — a marked sample at half the floor is only
/// possible when an averaged (classic) AQM kept marking after the real
/// queue drained. The 2× margin absorbs floor inflation on short flows
/// whose every clean sample carried some queueing delay.
const STALE_RTT_FACTOR: f64 = 0.5;
/// A sparse-marked round only counts as classic evidence when some marked
/// packet in it carried at least this much RTT inflation over the clean
/// floor. Classic ramp marking is inseparable from a *deep* queue — RED
/// only marks while its (averaged) queue sits above `min_th`, so the marked
/// packet's RTT carries the whole standing queue. The L4S DualQ coupled
/// AQM (RFC 9332) also emits a deliberately ramp-shaped signal
/// (`p_CL = k·p'`), but by design it arrives while the time-shifted
/// scheduler keeps the L queue *shallow*: falling back on those marks would
/// defeat the coupling, which exists precisely so a scalable sender can
/// keep its scalable response while classic flows get their share. The
/// marked-RTT inflation test separates the two ramps by the queue depth
/// they betray.
const CLASSIC_RTT_INFLATION: f64 = 4.0;
/// Stale-marked rounds (ever, per connection) that declare a classic AQM.
/// Stale evidence never decays: a step AQM cannot produce such marks at
/// all, so even well-separated observations stay damning — two of them
/// suffice.
const STALE_DETECT: u32 = 2;
/// Clean samples the floor must rest on before the RTT-based judgments
/// (stale undercut, classic inflation) are trusted. An RTT sample completes
/// on the cumulative ACK that crosses the timed sequence, so under loss
/// recovery a "clean" sample can carry head-of-line blocking rather than
/// path RTT — a floor built from two or three such samples reads a
/// millisecond where propagation is fifty microseconds, and every fresh
/// mark then looks like it "undercuts" it. A few samples in, the minimum
/// has seen past the noise.
const MIN_CLEAN_FLOOR: u32 = 8;
/// Rounds observing *sparse* CE marking *and* a loss in the same window
/// that declare a classic AQM. Drop-coupled sparse marking is the RTT-free
/// classic signature: RED's EWMA engages only after the burst has already
/// overflowed, so the sender sees a thin trickle of marks in the very round
/// its packets are tail-dropped. The sparseness requirement is what keeps a
/// step AQM out: when an incast burst blows through a shallow step
/// threshold to the buffer limit, the instantaneous queue sits far above
/// the threshold, so the overflow round arrives *saturated* with marks —
/// dense marks plus loss is congestion, sparse marks plus loss is a lagging
/// signal. Like stale evidence it never decays — two such rounds suffice.
const COEXIST_DETECT: u32 = 2;

/// Prague per-flow state.
#[derive(Debug, Clone, Copy)]
pub struct Prague {
    w: Window,
    /// Fraction-of-marked-bytes EWMA, as in DCTCP.
    alpha: f64,
    /// Bytes acked with CE in the current observation round.
    ce_acked: u64,
    /// Total bytes acked in the current observation round.
    window_acked: u64,
    /// Sequence number closing the current round.
    round_end: u64,
    /// Last RTT sample, ns (0 until the first sample).
    srtt_ns: u64,
    /// Smallest RTT sample seen on this connection, ns (`u64::MAX` until the
    /// first sample) — the propagation-delay estimate the staleness test
    /// compares marked samples against.
    rtt_min_ns: u64,
    /// The current round saw a CE-marked packet whose own RTT shows no
    /// queueing delay (set by [`CongestionController::on_rtt_sample`]).
    stale_round: bool,
    /// Clean (unmarked) RTT samples folded into the floor so far.
    clean_samples: u32,
    /// The current round saw a CE-marked packet whose own RTT carried
    /// classic-scale inflation over the clean floor (set by
    /// [`CongestionController::on_rtt_sample`]) — the deep-queue signature
    /// that lets a sparse round count as classic evidence.
    round_inflated: bool,
    /// The current round saw a loss (fast-retransmit or RTO) — combined
    /// with a CE mark in the same round it is drop-coupled-marking evidence.
    round_loss: bool,
    /// Sparse-marking evidence accumulated by the round classifier; cleared
    /// by mark-free stretches, decayed by dense fresh marking.
    evidence: u32,
    /// Stale-marked rounds observed over the connection's lifetime.
    stale_evidence: u32,
    /// Marked-and-lossy rounds observed over the connection's lifetime.
    coexist_evidence: u32,
    /// Consecutive mark-free rounds (ends a fallback episode).
    clear_rounds: u32,
    /// Classic-AQM episodes detected so far.
    fallbacks: u64,
    /// Currently responding like a classic (Reno) sender.
    fallback: bool,
}

impl Prague {
    /// Fresh state in scalable (L4S) mode.
    pub fn new(p: &CcParams) -> Prague {
        Prague {
            w: Window::new(p),
            alpha: 1.0,
            ce_acked: 0,
            window_acked: 0,
            round_end: 1,
            srtt_ns: 0,
            rtt_min_ns: u64::MAX,
            stale_round: false,
            clean_samples: 0,
            round_inflated: false,
            round_loss: false,
            evidence: 0,
            stale_evidence: 0,
            coexist_evidence: 0,
            clear_rounds: 0,
            fallbacks: 0,
            fallback: false,
        }
    }

    /// Classify a finished observation round by its CE-mark fraction, the
    /// staleness of its marks, whether the marks came from a deep queue,
    /// and whether the round also lost packets.
    fn classify_round(&mut self, frac: f64, stale: bool, inflated: bool, lossy: bool) {
        let coexist = frac > 0.0 && frac < CLASSIC_FRAC_MAX && lossy;
        if coexist {
            // Sparsely marked and tail-dropped in the same window: the
            // marking queue overflowed while its signal was still a trickle,
            // so the signal lags the real occupancy — the RTT-free classic
            // signature (see COEXIST_DETECT). Independent of the fraction
            // branches below: a coexist round may also be stale or inflated.
            self.coexist_evidence = self.coexist_evidence.saturating_add(1);
        }
        if frac > 0.0 && stale {
            // A marked packet whose own RTT shows no queueing delay: the
            // strongest classic-AQM signature, at any mark fraction. Never
            // decays — a step AQM cannot produce this observation.
            self.stale_evidence = self.stale_evidence.saturating_add(1);
            self.clear_rounds = 0;
        } else if frac > 0.0 && frac < CLASSIC_FRAC_MAX && inflated {
            // Sparse marking out of a deep queue: the classic
            // probabilistic-ramp signature. Sparse marks at *shallow* RTTs
            // are the DualQ coupling (ramp-shaped on purpose) and stay
            // neutral — they neither add evidence nor clear the episode.
            self.evidence = self.evidence.saturating_add(1);
            self.clear_rounds = 0;
        } else if frac == 0.0 {
            self.clear_rounds = self.clear_rounds.saturating_add(1);
            if self.clear_rounds >= CLEAR_ROUNDS {
                // Episode over: re-engage the scalable response and rearm
                // the sparse classifier for a future episode (sparse rounds
                // must be consecutive-ish; a step AQM's occasional
                // threshold-straddling round must not accumulate forever).
                self.evidence = 0;
                self.fallback = false;
            }
        } else if frac >= CLASSIC_FRAC_MAX {
            // Dense fresh marking (step/L4S signature): decay the evidence.
            self.evidence = self.evidence.saturating_sub(1);
            self.clear_rounds = 0;
        } else {
            // Sparse marking at shallow RTT: consistent with the DualQ
            // coupled ramp, so neutral — but the round was marked, so it
            // must not count toward ending an episode either.
            self.clear_rounds = 0;
        }
        // Only a round that could have *added* evidence may open an episode:
        // retained stale evidence plus a mark-free round must not re-trigger.
        let classic_round =
            frac > 0.0 && (stale || coexist || (frac < CLASSIC_FRAC_MAX && inflated));
        if classic_round
            && !self.fallback
            && (self.evidence >= DETECT_ROUNDS
                || self.stale_evidence >= STALE_DETECT
                || self.coexist_evidence >= COEXIST_DETECT)
        {
            self.fallback = true;
            self.fallbacks += 1;
        }
    }
}

impl CongestionController for Prague {
    fn alg(&self) -> CcAlg {
        CcAlg::Prague
    }
    fn cwnd(&self) -> f64 {
        self.w.cwnd
    }
    fn ssthresh(&self) -> f64 {
        self.w.ssthresh
    }
    fn alpha(&self) -> f64 {
        self.alpha
    }
    fn fallback_count(&self) -> u64 {
        self.fallbacks
    }

    fn on_ack(&mut self, p: &CcParams, newly: u64, _now_ns: u64) {
        if self.w.cwnd < self.w.ssthresh {
            self.w.cwnd += p.mss.min(newly as f64);
            return;
        }
        // RTT independence: additive increase normalized to the virtual RTT,
        // so a 100 µs datacenter flow does not grow 250× faster (per wall
        // clock) than the 25 ms reference. Fallback mode restores classic
        // Reno growth to match the competition.
        let scale = if self.fallback || self.srtt_ns == 0 {
            1.0
        } else {
            let r = self.srtt_ns as f64 / RTT_VIRT_NS;
            (r * r).min(1.0)
        };
        self.w.cwnd += scale * p.mss * p.mss / self.w.cwnd;
    }

    fn on_ce_feedback(&mut self, p: &CcParams, newly: u64, ce: bool, ack: u64, snd_nxt: u64) {
        self.window_acked += newly;
        if ce {
            self.ce_acked += newly;
        }
        if ack >= self.round_end {
            if self.window_acked > 0 {
                let f = self.ce_acked as f64 / self.window_acked as f64;
                let g = p.dctcp_g;
                self.alpha = (1.0 - g) * self.alpha + g * f;
                let stale = self.stale_round;
                // Without a clean floor (no RTT samples yet) the depth of
                // the marking queue is unknowable — keep the pre-floor
                // behavior of trusting the fraction alone.
                let inflated = self.round_inflated || self.rtt_min_ns == u64::MAX;
                let lossy = self.round_loss;
                self.classify_round(f, stale, inflated, lossy);
            }
            self.ce_acked = 0;
            self.window_acked = 0;
            self.stale_round = false;
            self.round_inflated = false;
            self.round_loss = false;
            self.round_end = snd_nxt;
        }
    }

    fn on_ece(&mut self, p: &CcParams) -> bool {
        if self.fallback {
            // Classic-AQM episode: respond like Reno so classic flows
            // sharing the bottleneck get their fair share.
            self.w.reno_ece(p);
        } else {
            self.w.cwnd = (self.w.cwnd * (1.0 - self.alpha / 2.0)).max(p.mss);
            self.w.ssthresh = self.w.cwnd;
        }
        true
    }

    fn on_rtt_sample(&mut self, _p: &CcParams, rtt_ns: u64, _now_ns: u64, ce: bool) {
        self.srtt_ns = rtt_ns;
        // Staleness is judged against the propagation floor established by
        // earlier *clean* samples: a first-ever sample can never look stale,
        // and a marked sample never updates the floor (the packet stood in
        // the marking queue, so its RTT is not a propagation estimate — and
        // folding it in would collapse the floor exactly when the drained
        // queue makes repeated stale observations possible).
        let prior_min = self.rtt_min_ns;
        // The floor must be mature before either RTT judgment is trusted
        // (see MIN_CLEAN_FLOOR): cumulative-ACK samples taken under loss
        // recovery carry head-of-line blocking, not path RTT.
        let floor_ready = prior_min != u64::MAX && self.clean_samples >= MIN_CLEAN_FLOOR;
        if ce {
            if floor_ready && (rtt_ns as f64) < prior_min as f64 * STALE_RTT_FACTOR {
                // This packet was CE-marked yet its RTT undercuts every clean
                // sample the connection has seen: the mark came from an
                // averaged queue that had already drained.
                self.stale_round = true;
            }
            if floor_ready && (rtt_ns as f64) > prior_min as f64 * CLASSIC_RTT_INFLATION {
                // Marked out of a deep queue: the round's sparse marks (if
                // sparse it is) may count as classic-ramp evidence.
                self.round_inflated = true;
            }
        } else {
            self.rtt_min_ns = prior_min.min(rtt_ns);
            self.clean_samples = self.clean_samples.saturating_add(1);
        }
    }

    fn on_loss(&mut self, p: &CcParams, flight: u64) {
        self.round_loss = true;
        self.w.reno_loss(p, flight);
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
    fn on_recovery_exit(&mut self, _p: &CcParams) {
        self.w.cwnd = self.w.ssthresh;
    }
    fn on_rto(&mut self, p: &CcParams, flight: u64) {
        self.round_loss = true;
        self.w.rto(p, flight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_params;

    /// Feed one observation round with the given CE fraction (by bytes).
    fn round(pr: &mut Prague, p: &CcParams, frac: f64) {
        let total = 14600u64;
        let ce = (total as f64 * frac) as u64;
        // Two ACKs per round: first carries the CE bytes, second closes the
        // round at `round_end`.
        let end = pr.round_end;
        pr.on_ce_feedback(p, ce, true, end - 1, end + total);
        pr.on_ce_feedback(p, total - ce, false, end, end + total);
    }

    /// Feed enough clean RTT samples at `rtt_ns` that the floor is mature
    /// and the RTT-based judgments (stale, inflation) engage.
    fn mature_floor(pr: &mut Prague, p: &CcParams, rtt_ns: u64) {
        for _ in 0..MIN_CLEAN_FLOOR {
            pr.on_rtt_sample(p, rtt_ns, 0, false);
        }
    }

    #[test]
    fn sparse_marking_rounds_trigger_exactly_one_fallback() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        assert!(!pr.fallback);
        // A classic-AQM episode: many consecutive rounds of sparse marking.
        for i in 0..20 {
            round(&mut pr, &p, 0.1);
            if i < DETECT_ROUNDS as usize - 1 {
                assert!(!pr.fallback, "needs {DETECT_ROUNDS} rounds");
            }
        }
        assert!(pr.fallback);
        assert_eq!(
            pr.fallback_count(),
            1,
            "one flip per episode, not per round"
        );
    }

    #[test]
    fn episode_end_and_new_episode_counts_again() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        for _ in 0..DETECT_ROUNDS {
            round(&mut pr, &p, 0.1);
        }
        assert!(pr.fallback);
        // Mark-free rounds end the episode.
        for _ in 0..CLEAR_ROUNDS {
            round(&mut pr, &p, 0.0);
        }
        assert!(!pr.fallback, "episode must end after clear rounds");
        assert_eq!(pr.fallback_count(), 1);
        // A second classic episode is detected and counted separately.
        for _ in 0..DETECT_ROUNDS {
            round(&mut pr, &p, 0.15);
        }
        assert!(pr.fallback);
        assert_eq!(pr.fallback_count(), 2);
    }

    #[test]
    fn recovery_needs_consecutive_clear_rounds_then_restores_scalable_ece() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        for _ in 0..DETECT_ROUNDS {
            round(&mut pr, &p, 0.1);
        }
        assert!(pr.fallback);

        // While fallen back, ECE gets the Reno response: cwnd drops to
        // exactly half (ssthresh = cwnd/2, cwnd = ssthresh).
        pr.w.cwnd = 100.0 * p.mss;
        pr.on_ece(&p);
        assert!(
            (pr.cwnd() - 50.0 * p.mss).abs() < 1e-9,
            "fallback ECE must halve, got {} mss",
            pr.cwnd() / p.mss
        );

        // CLEAR_ROUNDS - 1 mark-free rounds are not enough to recover...
        for i in 1..CLEAR_ROUNDS {
            round(&mut pr, &p, 0.0);
            assert!(pr.fallback, "recovered after only {i} clear rounds");
        }
        // ...and a single sparse-marked round resets the streak, so the
        // next CLEAR_ROUNDS - 1 clear rounds still don't end the episode.
        round(&mut pr, &p, 0.1);
        for _ in 1..CLEAR_ROUNDS {
            round(&mut pr, &p, 0.0);
        }
        assert!(pr.fallback, "clear rounds must be consecutive");

        // The CLEAR_ROUNDS-th consecutive mark-free round ends the episode.
        round(&mut pr, &p, 0.0);
        assert!(!pr.fallback);
        assert_eq!(pr.fallback_count(), 1, "recovery is not a new episode");

        // Recovered, the ECE response reverts to the alpha-proportional
        // scalable cut — gentler than Reno's half once alpha has decayed.
        pr.w.cwnd = 100.0 * p.mss;
        let alpha = pr.alpha();
        pr.on_ece(&p);
        let scalable = (100.0 * p.mss * (1.0 - alpha / 2.0)).max(p.mss);
        assert!(
            (pr.cwnd() - scalable).abs() < 1e-9,
            "post-recovery ECE must cut by alpha/2: got {} mss, want {} mss",
            pr.cwnd() / p.mss,
            scalable / p.mss
        );
        assert!(
            pr.cwnd() > 50.0 * p.mss,
            "decayed alpha ({alpha}) makes the scalable cut gentler than Reno"
        );
    }

    #[test]
    fn dense_step_marking_never_falls_back() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        // SimpleMarking-style feedback: rounds alternate between saturated
        // marking (queue above threshold) and none (below).
        for _ in 0..50 {
            round(&mut pr, &p, 0.9);
            round(&mut pr, &p, 0.0);
        }
        assert!(!pr.fallback);
        assert_eq!(pr.fallback_count(), 0);
    }

    #[test]
    fn stale_marks_trigger_fallback_at_any_fraction() {
        let p = test_params();
        // Saturated rounds whose marked packets undercut the clean RTT
        // floor by more than 2x: only a lagging averaged AQM marks after
        // the queue has drained, so the detector must fire even though the
        // fraction looks L4S-dense.
        let mut pr = Prague::new(&p);
        mature_floor(&mut pr, &p, 1_000_000); // clean floor: 1 ms (congested)
        for i in 0..STALE_DETECT {
            if i > 0 {
                // Stale evidence survives mark-free gaps > CLEAR_ROUNDS.
                for _ in 0..2 * CLEAR_ROUNDS {
                    round(&mut pr, &p, 0.0);
                }
            }
            assert!(!pr.fallback, "needs {STALE_DETECT} stale rounds, had {i}");
            // The timed packet carried a mark at well under half the floor:
            // the queue it was "marked in" had already drained. The marked
            // sample must NOT lower the floor, or the next stale sample
            // would no longer undercut it.
            pr.on_rtt_sample(&p, 400_000, 0, true);
            round(&mut pr, &p, 1.0);
        }
        assert!(pr.fallback);
        assert_eq!(pr.fallback_count(), 1);

        // Marks at or above the clean floor are what a step AQM produces
        // (the marked packet stood in the marking queue): silent, at any
        // fraction.
        let mut fresh = Prague::new(&p);
        mature_floor(&mut fresh, &p, 100_000);
        for _ in 0..50 {
            fresh.on_rtt_sample(&p, 90_000, 0, true);
            round(&mut fresh, &p, 1.0);
        }
        assert!(!fresh.fallback);
        assert_eq!(fresh.fallback_count(), 0);
    }

    #[test]
    fn shallow_sparse_marks_are_the_dualq_coupling_and_never_fall_back() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        mature_floor(&mut pr, &p, 100_000); // clean floor: 100 µs
                                            // The DualQ coupled signal: sparse ramp marks on packets whose RTT
                                            // shows only the shallow L queue (1.5x floor — no deep queue, not
                                            // stale either). Ramp-shaped on purpose, must not trigger fallback.
        for _ in 0..50 {
            pr.on_rtt_sample(&p, 150_000, 0, true);
            round(&mut pr, &p, 0.15);
        }
        assert!(!pr.fallback);
        assert_eq!(pr.fallback_count(), 0);
    }

    #[test]
    fn sparse_marks_from_a_deep_queue_still_fall_back() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        mature_floor(&mut pr, &p, 100_000); // clean floor: 100 µs
                                            // A classic RED ramp: the same sparse fractions, but every marked
                                            // packet stood in the deep queue that marked it (6x the floor).
        for i in 0..20 {
            pr.on_rtt_sample(&p, 600_000, 0, true);
            round(&mut pr, &p, 0.15);
            if i < DETECT_ROUNDS as usize - 1 {
                assert!(!pr.fallback, "needs {DETECT_ROUNDS} rounds");
            }
        }
        assert!(pr.fallback);
        assert_eq!(pr.fallback_count(), 1);
    }

    #[test]
    fn immature_floor_defers_rtt_judgments() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        // Two clean samples taken under loss recovery: cumulative-ACK
        // head-of-line blocking reads 1 ms where propagation is 50 µs. Every
        // later fresh mark would "undercut" such a floor — with fewer than
        // MIN_CLEAN_FLOOR samples behind it, the stale judgment must stay
        // quiet.
        pr.on_rtt_sample(&p, 1_000_000, 0, false);
        pr.on_rtt_sample(&p, 1_300_000, 0, false);
        for _ in 0..50 {
            pr.on_rtt_sample(&p, 120_000, 0, true); // fresh mark, 8x under floor
            round(&mut pr, &p, 0.9);
        }
        assert!(!pr.fallback);
        assert_eq!(pr.fallback_count(), 0);
        // The inflation judgment is deferred the same way: sparse marks over
        // an immature (but non-empty) floor are not deep-queue evidence.
        let mut sp = Prague::new(&p);
        sp.on_rtt_sample(&p, 100_000, 0, false);
        for _ in 0..50 {
            sp.on_rtt_sample(&p, 600_000, 0, true);
            round(&mut sp, &p, 0.15);
        }
        assert!(!sp.fallback);
        assert_eq!(sp.fallback_count(), 0);
    }

    #[test]
    fn drop_coupled_sparse_marking_triggers_fallback() {
        let p = test_params();
        // Sparse CE marks and a loss in the same round, twice: the RTT-free
        // classic signature (the queue overflowed while the marking signal
        // was still a trickle).
        let mut pr = Prague::new(&p);
        mature_floor(&mut pr, &p, 100_000);
        pr.on_loss(&p, 10 * p.mss as u64);
        round(&mut pr, &p, 0.1);
        assert!(!pr.fallback, "needs {COEXIST_DETECT} coexist rounds");
        // Evidence never decays: clear rounds in between don't erase it.
        for _ in 0..2 * CLEAR_ROUNDS {
            round(&mut pr, &p, 0.0);
        }
        pr.on_rto(&p, 10 * p.mss as u64);
        round(&mut pr, &p, 0.2);
        assert!(pr.fallback);
        assert_eq!(pr.fallback_count(), 1);

        // Loss without marks (droptail) and sparse shallow marks without
        // loss (the DualQ coupling) never coexist in a round: silent.
        let mut droptail = Prague::new(&p);
        mature_floor(&mut droptail, &p, 100_000);
        for _ in 0..20 {
            droptail.on_loss(&p, 10 * p.mss as u64);
            round(&mut droptail, &p, 0.0);
        }
        assert_eq!(droptail.fallback_count(), 0);

        // Dense marks plus loss is a step AQM whose shallow buffer an incast
        // burst blew straight through: the instantaneous queue sat far above
        // the threshold, so the overflow round arrives saturated with marks.
        // Congestion, not a lagging signal — silent.
        let mut step = Prague::new(&p);
        mature_floor(&mut step, &p, 100_000);
        for _ in 0..20 {
            step.on_loss(&p, 10 * p.mss as u64);
            round(&mut step, &p, 0.9);
            round(&mut step, &p, 0.0);
        }
        assert_eq!(step.fallback_count(), 0);
    }

    #[test]
    fn fallback_switches_ce_response_to_halving() {
        let p = test_params();
        let mut pr = Prague::new(&p);
        pr.w.cwnd = 100.0 * p.mss;
        pr.w.ssthresh = 100.0 * p.mss;
        pr.alpha = 0.1;
        let scalable = pr.w.cwnd * (1.0 - 0.1 / 2.0);
        assert!(pr.on_ece(&p));
        assert!((pr.cwnd() - scalable).abs() < 1e-9, "scalable response");
        pr.fallback = true;
        let before = pr.cwnd();
        assert!(pr.on_ece(&p));
        assert!((pr.cwnd() - before / 2.0).abs() < 1e-9, "classic response");
    }

    #[test]
    fn rtt_independence_scales_growth_below_virtual_rtt() {
        let p = test_params();
        let mut fast = Prague::new(&p);
        let mut slow = Prague::new(&p);
        for pr in [&mut fast, &mut slow] {
            pr.w.cwnd = 50.0 * p.mss;
            pr.w.ssthresh = 50.0 * p.mss;
        }
        fast.on_rtt_sample(&p, 2_500_000, 0, false); // 2.5 ms: 1/10 of virtual RTT
        slow.on_rtt_sample(&p, 25_000_000, 0, false); // exactly the virtual RTT
        let w0 = fast.cwnd();
        fast.on_ack(&p, 1460, 0);
        slow.on_ack(&p, 1460, 0);
        let fast_gain = fast.cwnd() - w0;
        let slow_gain = slow.cwnd() - w0;
        assert!(
            (fast_gain * 100.0 - slow_gain).abs() < 1e-9,
            "per-ack growth must scale by (rtt/rtt_virt)^2: {fast_gain} vs {slow_gain}"
        );
    }
}
