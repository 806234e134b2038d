//! The sink trait and sharing plumbing.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::rc::Rc;

/// An observer of cycle-domain events.
///
/// Simulator components hold an `Option<SharedSink>`; when none is
/// attached the only cost on the hot path is one well-predicted branch.
pub trait TraceSink {
    /// Observes one event.
    fn event(&mut self, e: &TraceEvent);
}

/// A sink shared between the processor, the FSL bank, the co-simulator
/// and user code. The simulation stack is single-threaded, so plain
/// `Rc<RefCell<..>>` sharing is sufficient (and keeps the untraced path
/// free of atomics).
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// Wraps a concrete sink for sharing. Keep a second `Rc` clone of the
/// concrete type to read results back after the run:
///
/// ```
/// use softsim_trace::{shared, GuestProfile};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let profile = Rc::new(RefCell::new(GuestProfile::new()));
/// let sink = shared(profile.clone());
/// drop(sink); // would be attached to a Cpu / CoSim
/// assert_eq!(profile.borrow().total_retires(), 0);
/// ```
pub fn shared<S: TraceSink + 'static>(sink: Rc<RefCell<S>>) -> SharedSink {
    sink
}

/// A sink that discards everything: the "tracing enabled, nothing
/// listening" configuration used by the overhead guard.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _e: &TraceEvent) {}
}

/// Broadcasts every event to several sinks (e.g. a [`crate::Recorder`]
/// for raw export plus a [`crate::Timeline`] for FIFO occupancy, in one
/// run).
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<SharedSink>,
}

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Fanout {
        Fanout::default()
    }

    /// Adds a downstream sink; returns `self` for chaining.
    pub fn with(mut self, sink: SharedSink) -> Fanout {
        self.sinks.push(sink);
        self
    }

    /// Adds a downstream sink.
    pub fn push(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }
}

impl TraceSink for Fanout {
    fn event(&mut self, e: &TraceEvent) {
        for s in &self.sinks {
            s.borrow_mut().event(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Rc::new(RefCell::new(Recorder::new(8)));
        let b = Rc::new(RefCell::new(Recorder::new(8)));
        let mut fan = Fanout::new().with(shared(a.clone())).with(shared(b.clone()));
        fan.event(&TraceEvent::GatewayWord { cycle: 1, peripheral: 0, to_hw: true, data: 7 });
        assert_eq!(a.borrow().events().len(), 1);
        assert_eq!(b.borrow().events().len(), 1);
    }
}
