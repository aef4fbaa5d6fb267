//! `SweepState` under concurrent drivers: storing a cell's outcome,
//! reporting it and counting it are one step.

use std::sync::Mutex;

use cmp_common::config::CmpConfig;
use cmp_common::journal::Journal;
use tcmp_core::experiment::{ConfigSpec, RunSpec};
use tcmp_core::supervisor::{CellMachine, RunPolicy, SweepState};

/// Reports come in the order the outstanding count goes down, so
/// whatever the sweep's last report triggers follows every other report
/// — the campaign service hangs `CampaignDone` on that.
#[test]
fn outcome_reports_are_ordered_with_the_outstanding_count() {
    let machine = CellMachine::plain(&CmpConfig::default());
    let specs: Vec<RunSpec> = (0..4)
        .map(|seed| RunSpec {
            app: workloads::apps::fft(),
            config: ConfigSpec::baseline(),
            seed,
            scale: 0.002,
        })
        .collect();
    // Every cell hits the cap at once: the workers finish together.
    let policy = RunPolicy {
        cycle_budget: Some(1_000),
        ..RunPolicy::default()
    };
    let state = SweepState::new(&specs, None::<Journal>);
    let reports = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for index in 0..specs.len() {
            let (state, reports, machine, policy) = (&state, &reports, &machine, &policy);
            scope.spawn(move || {
                state.run_cell(machine, index, policy, None, |outcome, _, outstanding| {
                    assert!(outcome.is_err(), "the cycle cap fails the cell");
                    reports.lock().unwrap().push(outstanding);
                })
            });
        }
    });
    assert_eq!(reports.into_inner().unwrap(), [3, 2, 1, 0]);
    assert!(state.pending().is_empty());
    assert_eq!(state.into_report().failures.len(), 4);
}
