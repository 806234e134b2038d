//! # softsim-trace — cycle-domain observability for the co-simulation stack
//!
//! The paper's co-simulation environment exists to answer *where do the
//! cycles go?* — how much of an application's time is compute, how much
//! is spent stalled on the Fast Simplex Links, how deep the FIFOs
//! actually fill (§IV's communication-overhead analysis). This crate is
//! the instrumentation layer that extracts those answers from a run
//! without changing its simulated behavior:
//!
//! * [`TraceEvent`] — the cycle-domain event model: instruction retires
//!   with stall attribution, FSL pushes/pops/flag rejections per channel,
//!   gateway word transfers, and discrete-event kernel activity;
//! * [`TraceSink`] — the observer trait every simulator component emits
//!   into; sinks are attached explicitly and the untraced path stays a
//!   single predictable branch;
//! * [`Recorder`] — a bounded ring buffer of raw events;
//! * [`Timeline`] — per-channel FIFO occupancy time series with
//!   high-water marks, exported as CSV;
//! * [`GuestProfile`] — the one per-PC collector: per-PC cycle and
//!   stall attribution, instruction mix, hot-PC histogram, the
//!   compute / FSL-read-stall / FSL-write-stall / memory
//!   [`CycleBreakdown`] and FSL, gateway and bus traffic totals, with
//!   totals that reconcile *exactly* against the processor's own
//!   [`cycles`](GuestProfile::total_cycles) counter; the raw material
//!   for basic-block hotspot analysis and flamegraphs (the analysis
//!   lives in `softsim-profile`). Event counters — faults, detections,
//!   recoveries, register writes — are `softsim-metrics`'
//!   `MetricsCollector`'s job;
//! * [`chrome`] — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`);
//! * [`json`] — a minimal JSON reader so exports can be schema-checked
//!   in tests without external dependencies.
//!
//! The crate is intentionally dependency-free (std only) and knows
//! nothing about the simulators; they depend on it, never the reverse.
//!
//! # Attaching
//!
//! Sinks are shared between the processor, the FSL bank and the
//! co-simulator through [`SharedSink`] (`Rc<RefCell<dyn TraceSink>>`):
//!
//! ```
//! use softsim_trace::{GuestProfile, InstClass, SharedSink, TraceEvent, TraceSink};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let profile = Rc::new(RefCell::new(GuestProfile::new()));
//! let sink: SharedSink = profile.clone();
//! sink.borrow_mut().event(&TraceEvent::Retire {
//!     cycle: 3,
//!     pc: 0x40,
//!     word: 0,
//!     class: InstClass::FslGet,
//!     cycles: 5,
//!     read_stalls: 3,
//!     write_stalls: 0,
//! });
//! assert_eq!(profile.borrow().breakdown().fsl_read_stall, 3);
//! ```

#![warn(missing_docs)]

pub mod chrome;
mod event;
mod guest;
pub mod json;
mod recorder;
mod sink;
mod timeline;

pub use event::{BusKind, DetectorKind, FifoDir, InjectionSite, InstClass, StallCause, TraceEvent};
pub use guest::{CycleBreakdown, GuestProfile, PcAttribution};
pub use recorder::Recorder;
pub use sink::{shared, Fanout, NullSink, SharedSink, TraceSink};
pub use timeline::Timeline;
