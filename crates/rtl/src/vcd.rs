//! Value-change-dump (VCD) recording for the RTL kernel, so waveforms can
//! be inspected with standard viewers (GTKWave etc.).

use std::io::{self, Write};

/// A VCD recorder over any writer.
pub struct VcdWriter {
    out: Box<dyn Write>,
    ids: Vec<String>,
    header_done: bool,
    last_time: Option<(u64, u64)>,
}

impl std::fmt::Debug for VcdWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcdWriter").field("signals", &self.ids.len()).finish()
    }
}

fn code(i: usize) -> String {
    // Printable short identifiers: base-94 over '!'..='~'.
    let mut i = i;
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

impl VcdWriter {
    /// Records into any writer (file, buffer, ...).
    pub fn new(out: Box<dyn Write>) -> VcdWriter {
        VcdWriter { out, ids: Vec::new(), header_done: false, last_time: None }
    }

    /// Declares the next signal (called in `SignalId` order by the kernel).
    pub(crate) fn declare(&mut self, name: &str, width: u8) {
        assert!(!self.header_done);
        let id = code(self.ids.len());
        // Sanitize the name for VCD identifiers.
        let clean: String =
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        let _ = writeln!(self.out, "$var wire {width} {id} {clean} $end");
        self.ids.push(id);
    }

    /// Finishes the header.
    pub(crate) fn start(&mut self) {
        let _ = writeln!(self.out, "$timescale 1ns $end\n$enddefinitions $end");
        self.header_done = true;
    }

    /// Records one value change.
    pub(crate) fn change(&mut self, now: u64, delta: u64, sig: u32, value: u64, width: u8) {
        if self.last_time != Some((now, delta)) {
            // VCD has no delta time; fold deltas into the same timestamp
            // (only the final value of each time step is meaningful).
            if self.last_time.map(|(t, _)| t) != Some(now) {
                let _ = writeln!(self.out, "#{now}");
            }
            self.last_time = Some((now, delta));
        }
        let id = &self.ids[sig as usize];
        if width == 1 {
            let _ = writeln!(self.out, "{}{}", value & 1, id);
        } else {
            let _ = writeln!(self.out, "b{value:b} {id}");
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A writer that exposes what was written.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vcd_records_changes() {
        let sink = Shared::default();
        let mut k = crate::kernel::Kernel::new();
        let clk = k.signal("clk", 1);
        let bus = k.signal("data_bus", 16);
        k.record_vcd(VcdWriter::new(Box::new(sink.clone())));
        k.poke(clk, 1);
        k.poke(bus, 0xAB);
        k.run_until(5);
        k.poke_after(clk, 0, 10);
        k.run_until(20);
        let mut vcd = k.take_vcd().unwrap();
        vcd.flush().unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("$var wire 1 ! clk $end"));
        assert!(text.contains("$var wire 16 \" data_bus $end"));
        assert!(text.contains("$enddefinitions"));
        assert!(text.contains("#0"));
        assert!(text.contains("b10101011"));
        assert!(text.contains("#15"), "falling edge at t=15: {text}");
    }

    /// Structural well-formedness of a whole dump: declarations strictly
    /// before `$enddefinitions`, timestamps strictly increasing, every
    /// value change referencing a declared identifier, scalar values
    /// limited to 0/1 and vector values to binary digits — the subset
    /// every VCD viewer requires.
    #[test]
    fn vcd_dump_is_well_formed() {
        let sink = Shared::default();
        let mut k = crate::kernel::Kernel::new();
        let clk = k.signal("clk", 1);
        let d = k.signal("d", 8);
        let q = k.signal("q", 8);
        // A clocked register: q <= d on rising clk.
        k.process(&[clk], move |ctx| {
            if ctx.rising(clk) {
                let v = ctx.get(d);
                ctx.set(q, v);
            }
        });
        k.record_vcd(VcdWriter::new(Box::new(sink.clone())));
        for t in 0..8u64 {
            k.poke_after(d, t * 3 + 1, t * 10);
            k.poke_after(clk, 1, t * 10 + 5);
            k.poke_after(clk, 0, t * 10 + 9);
        }
        k.run_until(100);
        let mut vcd = k.take_vcd().unwrap();
        vcd.flush().unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();

        let mut ids = std::collections::HashSet::new();
        let mut in_header = true;
        let mut last_time: Option<u64> = None;
        let mut changes = 0usize;
        for line in text.lines().filter(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("$var wire ") {
                assert!(in_header, "declaration after $enddefinitions: {line}");
                let mut parts = rest.split_whitespace();
                let width: u8 = parts.next().unwrap().parse().expect("width");
                assert!((1..=64).contains(&width));
                ids.insert(parts.next().unwrap().to_string());
                assert_eq!(parts.next_back(), Some("$end"));
            } else if line.contains("$enddefinitions") {
                in_header = false;
            } else if line.starts_with("$timescale") {
                assert!(in_header);
            } else if let Some(t) = line.strip_prefix('#') {
                assert!(!in_header, "timestamp inside header");
                let t: u64 = t.parse().expect("timestamp");
                assert!(last_time.is_none_or(|p| t > p), "time must increase: {line}");
                last_time = Some(t);
            } else if let Some(rest) = line.strip_prefix('b') {
                let (value, id) = rest.split_once(' ').expect("vector change");
                assert!(value.chars().all(|c| c == '0' || c == '1'), "{line}");
                assert!(ids.contains(id), "undeclared id in {line}");
                changes += 1;
            } else {
                let (value, id) = line.split_at(1);
                assert!(value == "0" || value == "1", "scalar value in {line}");
                assert!(ids.contains(id), "undeclared id in {line}");
                changes += 1;
            }
        }
        assert_eq!(ids.len(), 3, "three declared signals");
        assert!(changes > 20, "the run must produce real activity, saw {changes}");
        assert!(last_time.is_some(), "at least one timestamp");
    }

    #[test]
    fn short_codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(code(i)));
        }
    }
}
