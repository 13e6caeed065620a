//! End-to-end figure generation on a reduced grid: panels are well-formed
//! and the normalisation semantics hold.

use ecn_core::ProtectionMode;
use experiments::figures::{fig2, fig3, fig4};
use experiments::report::render_panel;
use experiments::scenario::{BufferDepth, QueueKind, Transport};
use experiments::sweep::{sweep, SweepGrid};

fn tiny_sweep() -> experiments::sweep::SweepResults {
    let mut grid = SweepGrid::tiny();
    grid.transports = vec![Transport::TcpEcn];
    grid.queues = vec![
        QueueKind::Red(ProtectionMode::AckSyn),
        QueueKind::SimpleMarking,
    ];
    grid.target_delays_us = vec![500];
    sweep(&grid)
}

#[test]
fn figures_are_well_formed_and_normalised() {
    let res = tiny_sweep();
    assert!(res.baseline_shallow.completed && res.baseline_deep.completed);

    for (panels, lower_is_better) in [(fig2(&res), true), (fig3(&res), false), (fig4(&res), true)] {
        for panel in panels {
            // 2 series (1 transport x 2 queues), 1 cell each.
            assert_eq!(panel.series.len(), 2, "{}", panel.id);
            for s in &panel.series {
                assert_eq!(s.cells.len(), 1, "{}/{}", panel.id, s.label);
                let v = s.cells[0].value;
                assert!(v.is_finite() && v > 0.0, "{}/{}: {v}", panel.id, s.label);
            }
            // Deep panels carry the dashed reference line.
            match panel.depth {
                BufferDepth::Deep => assert!(panel.reference.is_some(), "{}", panel.id),
                BufferDepth::Shallow => assert!(panel.reference.is_none(), "{}", panel.id),
            }
            // Rendering includes id, delays, and every series label.
            let txt = render_panel(&panel);
            assert!(txt.contains(&panel.id));
            assert!(txt.contains("500us"));
            for s in &panel.series {
                assert!(txt.contains(&s.label));
            }
            let _ = lower_is_better;
        }
    }
}

#[test]
fn claims_computable_from_reduced_sweep() {
    let res = tiny_sweep();
    let c = experiments::claims::claims(&res);
    let m = |id| experiments::claim::find(&c, id).unwrap().measured;
    // ack+syn exists in the grid, so its best-throughput is finite/positive.
    assert!(m("ack_syn_best_throughput") > 0.0);
    assert!(m("simple_marking_best_throughput") > 0.0);
    // No Red[Default] points at <=200us in this grid: the "tight" metric is
    // the fold identity (+inf), which the renderer must tolerate and the
    // check must fail.
    assert_eq!(m("red_default_tight_throughput"), f64::INFINITY);
    assert!(
        !experiments::claim::find(&c, "red_default_tight_throughput")
            .unwrap()
            .holds()
    );
    let rendered = experiments::claims::render_claims(&c);
    assert!(rendered.contains("measured"));
}
