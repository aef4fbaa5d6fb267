//! A cell's identity, declared once. Every input of a cell is
//! classified by an exhaustive destructuring — the fields of
//! [`SimConfig`] here, the supervisor's `CellMachine`, `RunSpec` and
//! `RunPolicy` in `supervisor::cell_inputs` — so a field added to any of
//! them does not compile until it is classified. Each key is the hash of
//! the inputs whose [`Class`] it admits:
//!
//! | class | inputs | shape | warm | simulation | reuse |
//! |---|---|---|---|---|---|
//! | [`Class::State`] | machine, interconnect, scheme, faults, sanitizer, watchdog; app, seed, scale | ✓ | ✓ | ✓ | ✓ |
//! | [`Class::Observes`] | coverage probes | ✓ | ✓ | | ✓ |
//! | [`Class::Result`] | `max_cycles`, planted invariant, cycle budget, retries | | | ✓ | ✓ |
//! | [`Class::Schedules`] | wall deadline, backoff | | | | |
//! | [`Class::Inert`] | `sim_threads` | | | | |
//! | [`Class::Presentation`] | the configuration's label (in `cell_key` only) | | | | |
//!
//! The shape key sees only the [`SimConfig`] fields, and an optional
//! component (fault injector, sanitizer, watchdog) only as armed or not:
//! it says which machine a snapshot's bytes fit, so a snapshot restores
//! into a machine built for another app or seed.

use std::fmt::Debug;

use cmp_common::hash::Fnv64;

use super::SimConfig;

/// How an input bears on a cell, and so which keys it enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Shapes the machine's state: every key.
    State,
    /// Observes the run without steering it: shapes the snapshot and
    /// fills the row, so every key but the simulation key.
    Observes,
    /// Decides how the run ends, never the state at a cycle it reaches:
    /// the simulation and reuse keys.
    Result,
    /// Only schedules the run: no key.
    Schedules,
    /// Read by nothing: no key.
    Inert,
    /// Names the cell for people: no key.
    Presentation,
}

/// The keys that are projections of a cell's inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Key {
    /// Which machine a snapshot's bytes fit (the snapshot header).
    Shape,
    /// Which checkpoint a run may start from (with the warm point).
    Warm,
    /// Which cells are one simulation.
    Simulation,
    /// Which cells finish with equal rows.
    Reuse,
}

impl Class {
    /// Whether an input of this class enters `key`.
    pub fn enters(self, key: Key) -> bool {
        match self {
            Class::State => true,
            Class::Observes => key != Key::Simulation,
            Class::Result => matches!(key, Key::Simulation | Key::Reuse),
            Class::Schedules | Class::Inert | Class::Presentation => false,
        }
    }
}

/// One classified input: its name, its class, and its `Debug` rendering.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: &'static str,
    pub class: Class,
    /// `Some` for an optional component: whether it is armed.
    armed: Option<bool>,
    value: String,
}

impl Input {
    /// An input of `class`, rendered from `value`.
    pub fn new(name: &'static str, class: Class, value: &dyn Debug) -> Input {
        Input {
            name,
            class,
            armed: None,
            value: format!("{value:?}"),
        }
    }

    /// An optional component of the machine, `armed` or not.
    fn component(name: &'static str, armed: bool, value: &dyn Debug) -> Input {
        Input {
            armed: Some(armed),
            ..Input::new(name, Class::State, value)
        }
    }
}

/// The hash of `inputs` as `key` sees them: each admitted input's name
/// and value (or, for the shape key, an optional component's arming),
/// length-prefixed, in order.
pub fn key_hash(inputs: &[Input], key: Key) -> u64 {
    let mut h = Fnv64::new();
    for input in inputs.iter().filter(|i| i.class.enters(key)) {
        h.write_str(input.name);
        match (key, input.armed) {
            (Key::Shape, Some(armed)) => h.write_u64(armed.into()),
            _ => h.write_str(&input.value),
        }
    }
    h.finish()
}

impl SimConfig {
    /// Every field of the configuration, classified.
    pub fn inputs(&self) -> Vec<Input> {
        let SimConfig {
            cmp,
            interconnect,
            scheme,
            max_cycles,
            coverage_probes,
            faults,
            sanitizer,
            watchdog,
            sim_threads,
        } = self;
        vec![
            Input::new("cmp", Class::State, cmp),
            Input::new("interconnect", Class::State, interconnect),
            Input::new("scheme", Class::State, scheme),
            Input::component("faults", faults.enabled(), faults),
            Input::component("sanitizer", sanitizer.is_some(), sanitizer),
            Input::component("watchdog", watchdog.is_some(), watchdog),
            Input::new("coverage_probes", Class::Observes, coverage_probes),
            Input::new("max_cycles", Class::Result, max_cycles),
            Input::new("sim_threads", Class::Inert, sim_threads),
        ]
    }
}
