//! Cycle-accurate arithmetic-level model of the Xilinx Fast Simplex Link.
//!
//! FSLs are the unidirectional FIFO channels through which MicroBlaze talks
//! to customized hardware peripherals (§III-B of the paper). Each channel
//! carries 32-bit words tagged with a *control* bit; the processor sees a
//! `full` flag on its write side and an `exists` flag on its read side. The
//! paper's co-simulator models exactly these flags plus the FIFO contents —
//! "the high-level simulation of the communication interface only captures
//! the arithmetic aspects of the communication protocols regardless
//! of whether the data buffering ... is realized using registers, slices
//! or embedded memory blocks."

use softsim_trace::{FifoDir, SharedSink, TraceEvent};
use std::collections::VecDeque;

/// Default FSL FIFO depth (the Xilinx FSL macro default).
pub const DEFAULT_DEPTH: usize = 16;

// --- SEC-DED word codec -------------------------------------------------
//
// A (39,33) Hamming code with an overall parity bit over the 33-bit FSL
// payload (32 data bits + the control bit): single-bit upsets in a
// buffered word are corrected in place at pop time, double-bit upsets
// are signaled as detected-uncorrectable. The 6 Hamming check bits and
// the overall parity bit live in a per-word check byte stored alongside
// the FIFO contents — the model of the extra block-RAM parity column a
// hardened FSL macro would carry.

/// Hamming codeword position of each of the 33 payload bits (32 data
/// bits then the control bit): the non-power-of-two positions ≥ 3, in
/// order. The highest is 39, so positions fit 6 bits.
const PAYLOAD_POS: [u8; 33] = {
    let mut t = [0u8; 33];
    let mut pos = 3u8;
    let mut i = 0;
    while i < 33 {
        if pos & (pos - 1) != 0 {
            t[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    t
};

/// Codeword position of the control bit.
const CONTROL_POS: u8 = PAYLOAD_POS[32];

/// Inverse map: codeword position → payload bit index (0xFF: a check
/// position or unused).
const POS_PAYLOAD: [u8; 64] = {
    let mut t = [0xFFu8; 64];
    let mut i = 0;
    while i < 33 {
        t[PAYLOAD_POS[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Per-byte-lane syndrome contributions: XOR of the codeword positions
/// of the set bits of one data byte. Keeps the per-word encode/decode
/// cost at four table lookups, so enabling ECC is invisible next to the
/// cycle loop (the overhead bench guards this).
const ECC_LANE: [[u8; 256]; 4] = {
    let mut t = [[0u8; 256]; 4];
    let mut lane = 0;
    while lane < 4 {
        let mut byte = 0usize;
        while byte < 256 {
            let mut syn = 0u8;
            let mut bit = 0;
            while bit < 8 {
                if (byte >> bit) & 1 == 1 {
                    syn ^= PAYLOAD_POS[lane * 8 + bit];
                }
                bit += 1;
            }
            t[lane][byte] = syn;
            byte += 1;
        }
        lane += 1;
    }
    t
};

/// XOR of the codeword positions of every set payload bit.
fn payload_syndrome(w: FslWord) -> u8 {
    let d = w.data;
    ECC_LANE[0][(d & 0xff) as usize]
        ^ ECC_LANE[1][(d >> 8 & 0xff) as usize]
        ^ ECC_LANE[2][(d >> 16 & 0xff) as usize]
        ^ ECC_LANE[3][(d >> 24) as usize]
        ^ if w.control { CONTROL_POS } else { 0 }
}

/// What the SEC-DED decoder concluded about one popped word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccVerdict {
    /// The word matched its check byte.
    Clean,
    /// A single-bit upset was corrected (in the payload, a check bit or
    /// the parity bit — payload corrections change the returned word).
    Corrected,
    /// A multi-bit upset: detected but not correctable. The word is
    /// delivered as-is; the consumer decides what survival means.
    Uncorrectable,
}

/// Encodes the SEC-DED check byte for one word: Hamming check bits in
/// bits 0–5, overall parity in bit 6.
pub fn ecc_encode(w: FslWord) -> u8 {
    let check = payload_syndrome(w) & 0x3f;
    let parity = (w.data.count_ones() + w.control as u32 + check.count_ones()) as u8 & 1;
    check | parity << 6
}

/// Decodes one word against its stored check byte, correcting a
/// single-bit payload upset in place.
pub fn ecc_decode(mut w: FslWord, stored: u8) -> (FslWord, EccVerdict) {
    let stored_check = stored & 0x3f;
    let syndrome = (payload_syndrome(w) ^ stored_check) & 0x3f;
    let parity = (w.data.count_ones() + w.control as u32 + stored_check.count_ones()) as u8 & 1;
    let parity_err = parity != stored >> 6 & 1;
    match (parity_err, syndrome) {
        (false, 0) => (w, EccVerdict::Clean),
        // Even number of flipped bits but a nonzero syndrome: a
        // double-bit upset, beyond single-error correction.
        (false, _) => (w, EccVerdict::Uncorrectable),
        // Odd number of flips: a single-bit upset somewhere in the
        // codeword. Syndrome 0 means the parity bit itself; a check
        // position means a check bit; a payload position is corrected
        // in the word.
        (true, 0) => (w, EccVerdict::Corrected),
        (true, s) => match POS_PAYLOAD[s as usize] {
            0xFF if s & (s - 1) == 0 => (w, EccVerdict::Corrected),
            0xFF => (w, EccVerdict::Uncorrectable),
            idx if idx < 32 => {
                w.data ^= 1 << idx;
                (w, EccVerdict::Corrected)
            }
            _ => {
                w.control = !w.control;
                (w, EccVerdict::Corrected)
            }
        },
    }
}

/// Tracing state of one FIFO: the shared sink plus this channel's
/// identity and the current clock cycle (stamped in by whoever owns the
/// clock domain — [`FslBank::set_trace_cycle`]). Boxed so the untraced
/// FIFO stays small.
#[derive(Clone)]
struct FifoTrace {
    sink: SharedSink,
    dir: FifoDir,
    channel: u8,
    cycle: u64,
}

impl std::fmt::Debug for FifoTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FifoTrace")
            .field("dir", &self.dir)
            .field("channel", &self.channel)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

/// One word traveling over an FSL: 32 data bits plus the control bit.
///
/// The applications in the paper use the control bit to mark configuration
/// words (the CORDIC `C0` constant, the matrix-B block elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FslWord {
    /// The 32-bit payload.
    pub data: u32,
    /// The control flag (`Out#_control` on the reader side).
    pub control: bool,
}

impl FslWord {
    /// A data word (control bit clear).
    pub const fn data(data: u32) -> FslWord {
        FslWord { data, control: false }
    }

    /// A control word (control bit set).
    pub const fn control(data: u32) -> FslWord {
        FslWord { data, control: true }
    }
}

/// Occupancy and traffic statistics for one FSL channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FslStats {
    /// Total words pushed.
    pub pushes: u64,
    /// Total words popped.
    pub pops: u64,
    /// Push attempts rejected because the FIFO was full.
    pub full_rejections: u64,
    /// Pop attempts rejected because the FIFO was empty.
    pub empty_rejections: u64,
    /// Single-bit upsets the SEC-DED codec corrected at pop time.
    pub ecc_corrected: u64,
    /// Multi-bit upsets the codec detected but could not correct.
    pub ecc_uncorrectable: u64,
    /// High-water mark of FIFO occupancy.
    pub max_occupancy: usize,
}

/// A single unidirectional FSL FIFO channel.
#[derive(Debug, Clone)]
pub struct FslFifo {
    queue: VecDeque<FslWord>,
    depth: usize,
    stats: FslStats,
    trace: Option<Box<FifoTrace>>,
    /// SEC-DED protection: when on, every buffered word carries a check
    /// byte in `check` (same queue order), encoded at push and verified
    /// (with single-bit correction) at pop.
    ecc: bool,
    check: VecDeque<u8>,
    /// Fault-injection override: the `full` flag reads asserted
    /// regardless of occupancy (an SEU in the flag logic).
    stuck_full: bool,
    /// Fault-injection override: the `exists` flag reads deasserted
    /// regardless of occupancy.
    stuck_empty: bool,
}

/// Serializable state of one FSL FIFO (see [`FslFifo::save_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FslFifoState {
    /// Buffered words, front first.
    pub words: Vec<FslWord>,
    /// Whether SEC-DED protection was on.
    pub ecc: bool,
    /// Check bytes matching `words` (empty when `ecc` is off).
    pub check: Vec<u8>,
    /// Traffic statistics at snapshot time.
    pub stats: FslStats,
    /// Stuck-flag fault overrides.
    pub stuck_full: bool,
    /// Stuck-flag fault overrides.
    pub stuck_empty: bool,
}

impl Default for FslFifo {
    fn default() -> Self {
        FslFifo::new(DEFAULT_DEPTH)
    }
}

impl FslFifo {
    /// Creates a channel with the given FIFO depth.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> FslFifo {
        assert!(depth > 0, "FSL FIFO depth must be positive");
        FslFifo {
            queue: VecDeque::with_capacity(depth),
            depth,
            stats: FslStats::default(),
            trace: None,
            ecc: false,
            check: VecDeque::new(),
            stuck_full: false,
            stuck_empty: false,
        }
    }

    /// Enables (or disables) the SEC-DED word codec on this channel.
    /// Words already buffered are (re-)encoded as clean — protection
    /// starts from the current contents.
    pub fn set_ecc(&mut self, on: bool) {
        self.ecc = on;
        self.check.clear();
        if on {
            self.check.extend(self.queue.iter().map(|&w| ecc_encode(w)));
        }
    }

    /// Attaches a trace sink to this FIFO. Pushes, pops and flag
    /// rejections are emitted as cycle-stamped events; the cycle domain
    /// is supplied via [`FslFifo::set_trace_cycle`].
    pub fn attach_trace(&mut self, sink: SharedSink, dir: FifoDir, channel: u8) {
        self.trace = Some(Box::new(FifoTrace { sink, dir, channel, cycle: 0 }));
    }

    /// Detaches any trace sink from this FIFO.
    pub fn detach_trace(&mut self) {
        self.trace = None;
    }

    /// Stamps the current clock cycle into subsequently emitted events.
    pub fn set_trace_cycle(&mut self, cycle: u64) {
        if let Some(t) = &mut self.trace {
            t.cycle = cycle;
        }
    }

    /// FIFO capacity in words.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no word is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The `FSL#_full` flag the writer observes. A
    /// [`FslFifo::set_stuck_full`] fault forces it asserted.
    pub fn full(&self) -> bool {
        self.stuck_full || self.queue.len() >= self.depth
    }

    /// The `FSL#_exists` flag the reader observes. A
    /// [`FslFifo::set_stuck_empty`] fault forces it deasserted.
    pub fn exists(&self) -> bool {
        !self.stuck_empty && !self.queue.is_empty()
    }

    /// Attempts to push one word; returns `false` (and leaves the FIFO
    /// unchanged) when full. Matches the blocking-write stall condition.
    pub fn try_push(&mut self, word: FslWord) -> bool {
        if self.full() {
            self.stats.full_rejections += 1;
            if let Some(t) = &self.trace {
                t.sink.borrow_mut().event(&TraceEvent::FifoFull {
                    cycle: t.cycle,
                    dir: t.dir,
                    channel: t.channel,
                });
            }
            return false;
        }
        self.queue.push_back(word);
        if self.ecc {
            self.check.push_back(ecc_encode(word));
        }
        self.stats.pushes += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.queue.len());
        if let Some(t) = &self.trace {
            t.sink.borrow_mut().event(&TraceEvent::FifoPush {
                cycle: t.cycle,
                dir: t.dir,
                channel: t.channel,
                data: word.data,
                control: word.control,
                occupancy: self.queue.len() as u8,
            });
        }
        true
    }

    /// Attempts to pop one word; `None` when empty (or when a stuck
    /// `exists` fault hides the buffered words from the reader).
    pub fn try_pop(&mut self) -> Option<FslWord> {
        let popped = if self.stuck_empty { None } else { self.queue.pop_front() };
        match popped {
            Some(mut w) => {
                if self.ecc {
                    let stored = self.check.pop_front().expect("check byte per buffered word");
                    let (decoded, verdict) = ecc_decode(w, stored);
                    w = decoded;
                    match verdict {
                        EccVerdict::Clean => {}
                        EccVerdict::Corrected => self.stats.ecc_corrected += 1,
                        EccVerdict::Uncorrectable => self.stats.ecc_uncorrectable += 1,
                    }
                }
                self.stats.pops += 1;
                if let Some(t) = &self.trace {
                    t.sink.borrow_mut().event(&TraceEvent::FifoPop {
                        cycle: t.cycle,
                        dir: t.dir,
                        channel: t.channel,
                        data: w.data,
                        control: w.control,
                        occupancy: self.queue.len() as u8,
                    });
                }
                Some(w)
            }
            None => {
                self.stats.empty_rejections += 1;
                if let Some(t) = &self.trace {
                    t.sink.borrow_mut().event(&TraceEvent::FifoEmpty {
                        cycle: t.cycle,
                        dir: t.dir,
                        channel: t.channel,
                    });
                }
                None
            }
        }
    }

    /// Charges `n` empty-pop rejections in one jump — what `n` failing
    /// [`FslFifo::try_pop`] calls on a channel whose `exists` flag
    /// cannot assert would record. Statistics only, no trace events:
    /// the stall fast-forward path that uses this runs untraced (a
    /// trace sink disengages fast-forwarding so the per-cycle event
    /// stream stays complete).
    pub fn add_empty_rejections(&mut self, n: u64) {
        self.stats.empty_rejections += n;
    }

    /// Charges `n` full-push rejections in one jump — the write-side
    /// counterpart of [`FslFifo::add_empty_rejections`].
    pub fn add_full_rejections(&mut self, n: u64) {
        self.stats.full_rejections += n;
    }

    /// The word at the head without consuming it.
    pub fn peek(&self) -> Option<FslWord> {
        self.queue.front().copied()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> FslStats {
        self.stats
    }

    /// Empties the FIFO (reset).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.check.clear();
    }

    /// Forces (or releases) the `full` flag regardless of occupancy —
    /// models an SEU in the flag logic. Writers stall forever while set.
    pub fn set_stuck_full(&mut self, stuck: bool) {
        self.stuck_full = stuck;
    }

    /// Forces (or releases) a deasserted `exists` flag regardless of
    /// occupancy. Readers see an empty channel while set.
    pub fn set_stuck_empty(&mut self, stuck: bool) {
        self.stuck_empty = stuck;
    }

    /// Mutable access to the `index`-th buffered word (0 = head), for
    /// fault injection into in-flight data. `None` past the occupancy.
    /// Deliberately leaves any SEC-DED check byte untouched: a stale
    /// check byte is exactly how the codec notices the upset at pop.
    pub fn word_mut(&mut self, index: usize) -> Option<&mut FslWord> {
        self.queue.get_mut(index)
    }

    /// Silently removes the `index`-th buffered word (0 = head) — a
    /// dropped-word protocol fault. Returns the word, or `None` past the
    /// occupancy. Deliberately bypasses statistics and tracing: the
    /// design under test never observes the transfer.
    pub fn remove_word(&mut self, index: usize) -> Option<FslWord> {
        let w = self.queue.remove(index);
        if self.ecc && w.is_some() {
            self.check.remove(index);
        }
        w
    }

    /// Duplicates the head word in place — a duplicated-word protocol
    /// fault. Returns `false` (unchanged) when the FIFO is empty or
    /// already full. Bypasses statistics and tracing like
    /// [`FslFifo::remove_word`].
    pub fn duplicate_head(&mut self) -> bool {
        if self.queue.len() >= self.depth {
            return false;
        }
        match self.queue.front().copied() {
            Some(w) => {
                self.queue.push_front(w);
                if self.ecc {
                    // The duplicate inherits the head's stored check
                    // byte, stale or not — the fault copies the raw
                    // buffered row, not a re-encoded word.
                    let chk = *self.check.front().expect("check byte per buffered word");
                    self.check.push_front(chk);
                }
                true
            }
            None => false,
        }
    }

    /// Captures the FIFO's snapshot state (contents, statistics and
    /// fault overrides). Trace attachment is an observer and excluded.
    pub fn save_state(&self) -> FslFifoState {
        FslFifoState {
            words: self.queue.iter().copied().collect(),
            ecc: self.ecc,
            check: self.check.iter().copied().collect(),
            stats: self.stats,
            stuck_full: self.stuck_full,
            stuck_empty: self.stuck_empty,
        }
    }

    /// Restores a snapshot taken by [`FslFifo::save_state`].
    ///
    /// # Panics
    /// Panics if the snapshot holds more words than this FIFO's depth.
    pub fn load_state(&mut self, state: &FslFifoState) {
        assert!(state.words.len() <= self.depth, "snapshot exceeds FIFO depth");
        if state.ecc {
            assert_eq!(state.check.len(), state.words.len(), "check byte per buffered word");
        }
        self.queue.clear();
        self.queue.extend(state.words.iter().copied());
        self.ecc = state.ecc;
        self.check.clear();
        self.check.extend(state.check.iter().copied());
        self.stats = state.stats;
        self.stuck_full = state.stuck_full;
        self.stuck_empty = state.stuck_empty;
    }
}

/// Number of FSL channels per direction on MicroBlaze.
pub const CHANNELS: usize = 8;

/// The full set of FSL channels attached to a soft processor:
/// eight *master* (processor → hardware) and eight *slave*
/// (hardware → processor) channels, as on MicroBlaze.
#[derive(Debug, Clone)]
pub struct FslBank {
    /// Processor → peripheral channels (CPU `put` side).
    to_hw: [FslFifo; CHANNELS],
    /// Peripheral → processor channels (CPU `get` side).
    from_hw: [FslFifo; CHANNELS],
    /// True once a trace sink is attached: gates the per-cycle stamping
    /// so the untraced path pays a single branch.
    traced: bool,
}

impl Default for FslBank {
    fn default() -> Self {
        FslBank::new(DEFAULT_DEPTH)
    }
}

impl FslBank {
    /// Creates a bank with uniform FIFO depth.
    pub fn new(depth: usize) -> FslBank {
        FslBank {
            to_hw: std::array::from_fn(|_| FslFifo::new(depth)),
            from_hw: std::array::from_fn(|_| FslFifo::new(depth)),
            traced: false,
        }
    }

    /// Attaches a trace sink to every channel in both directions. FIFO
    /// events carry the cycle most recently stamped in with
    /// [`FslBank::set_trace_cycle`] (the processor does this each tick).
    pub fn attach_trace(&mut self, sink: SharedSink) {
        for (i, f) in self.to_hw.iter_mut().enumerate() {
            f.attach_trace(sink.clone(), FifoDir::ToHw, i as u8);
        }
        for (i, f) in self.from_hw.iter_mut().enumerate() {
            f.attach_trace(sink.clone(), FifoDir::FromHw, i as u8);
        }
        self.traced = true;
    }

    /// Detaches the trace sink from every channel.
    pub fn detach_trace(&mut self) {
        for f in self.to_hw.iter_mut().chain(self.from_hw.iter_mut()) {
            f.detach_trace();
        }
        self.traced = false;
    }

    /// True once [`FslBank::attach_trace`] has been called.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Enables (or disables) the SEC-DED word codec on every channel in
    /// both directions.
    pub fn set_ecc_all(&mut self, on: bool) {
        for f in self.to_hw.iter_mut().chain(self.from_hw.iter_mut()) {
            f.set_ecc(on);
        }
    }

    /// Total single-bit corrections across every channel.
    pub fn ecc_corrected_total(&self) -> u64 {
        self.to_hw.iter().chain(self.from_hw.iter()).map(|f| f.stats().ecc_corrected).sum()
    }

    /// Total detected-uncorrectable upsets across every channel.
    pub fn ecc_uncorrectable_total(&self) -> u64 {
        self.to_hw.iter().chain(self.from_hw.iter()).map(|f| f.stats().ecc_uncorrectable).sum()
    }

    /// Stamps the current clock cycle into every channel's trace state.
    /// No-op (one branch) when no sink is attached.
    pub fn set_trace_cycle(&mut self, cycle: u64) {
        if !self.traced {
            return;
        }
        for f in self.to_hw.iter_mut().chain(self.from_hw.iter_mut()) {
            f.set_trace_cycle(cycle);
        }
    }

    /// Processor-to-hardware channel `ch` (the CPU writes here).
    pub fn to_hw(&mut self, ch: usize) -> &mut FslFifo {
        &mut self.to_hw[ch]
    }

    /// Hardware-to-processor channel `ch` (the CPU reads here).
    pub fn from_hw(&mut self, ch: usize) -> &mut FslFifo {
        &mut self.from_hw[ch]
    }

    /// Immutable view of a processor-to-hardware channel.
    pub fn to_hw_ref(&self, ch: usize) -> &FslFifo {
        &self.to_hw[ch]
    }

    /// Immutable view of a hardware-to-processor channel.
    pub fn from_hw_ref(&self, ch: usize) -> &FslFifo {
        &self.from_hw[ch]
    }

    /// Resets every FIFO.
    pub fn clear(&mut self) {
        for f in self.to_hw.iter_mut().chain(self.from_hw.iter_mut()) {
            f.clear();
        }
    }

    /// Total words currently buffered in both directions.
    pub fn words_in_flight(&self) -> usize {
        self.to_hw.iter().chain(self.from_hw.iter()).map(FslFifo::len).sum()
    }

    /// Total successful pushes + pops across every channel in both
    /// directions — a monotone progress counter for liveness watchdogs:
    /// if it stops advancing, no word is moving anywhere in the bank.
    pub fn total_ops(&self) -> u64 {
        self.to_hw
            .iter()
            .chain(self.from_hw.iter())
            .map(|f| f.stats().pushes + f.stats().pops)
            .sum()
    }

    /// Captures every channel's snapshot state.
    pub fn save_state(&self) -> FslBankState {
        FslBankState {
            to_hw: self.to_hw.iter().map(FslFifo::save_state).collect(),
            from_hw: self.from_hw.iter().map(FslFifo::save_state).collect(),
        }
    }

    /// Restores a snapshot taken by [`FslBank::save_state`].
    ///
    /// # Panics
    /// Panics on a channel-count mismatch or when any channel's snapshot
    /// exceeds its FIFO depth.
    pub fn load_state(&mut self, state: &FslBankState) {
        assert_eq!(state.to_hw.len(), CHANNELS, "snapshot channel count");
        assert_eq!(state.from_hw.len(), CHANNELS, "snapshot channel count");
        for (f, s) in self.to_hw.iter_mut().zip(&state.to_hw) {
            f.load_state(s);
        }
        for (f, s) in self.from_hw.iter_mut().zip(&state.from_hw) {
            f.load_state(s);
        }
    }
}

/// Serializable state of a full FSL bank (see [`FslBank::save_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FslBankState {
    /// Processor → hardware channels, index order.
    pub to_hw: Vec<FslFifoState>,
    /// Hardware → processor channels, index order.
    pub from_hw: Vec<FslFifoState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_first_in_first_out() {
        let mut f = FslFifo::new(4);
        assert!(f.try_push(FslWord::data(1)));
        assert!(f.try_push(FslWord::control(2)));
        assert_eq!(f.try_pop(), Some(FslWord::data(1)));
        assert_eq!(f.try_pop(), Some(FslWord::control(2)));
        assert_eq!(f.try_pop(), None);
    }

    #[test]
    fn full_and_exists_flags() {
        let mut f = FslFifo::new(2);
        assert!(!f.exists());
        assert!(!f.full());
        f.try_push(FslWord::data(1));
        assert!(f.exists());
        f.try_push(FslWord::data(2));
        assert!(f.full());
        assert!(!f.try_push(FslWord::data(3)), "push into full FIFO must fail");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn stats_track_traffic_and_high_water() {
        let mut f = FslFifo::new(2);
        f.try_push(FslWord::data(1));
        f.try_push(FslWord::data(2));
        f.try_push(FslWord::data(3)); // rejected
        f.try_pop();
        f.try_pop();
        f.try_pop(); // rejected
        let s = f.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 2);
        assert_eq!(s.full_rejections, 1);
        assert_eq!(s.empty_rejections, 1);
        assert_eq!(s.max_occupancy, 2);
    }

    #[test]
    fn control_bit_survives_transit() {
        let mut bank = FslBank::default();
        bank.to_hw(0).try_push(FslWord::control(0xC0));
        bank.to_hw(0).try_push(FslWord::data(0xD0));
        let w0 = bank.to_hw(0).try_pop().unwrap();
        let w1 = bank.to_hw(0).try_pop().unwrap();
        assert!(w0.control && w0.data == 0xC0);
        assert!(!w1.control && w1.data == 0xD0);
    }

    #[test]
    fn bank_directions_are_independent() {
        let mut bank = FslBank::new(4);
        bank.to_hw(3).try_push(FslWord::data(7));
        assert!(bank.from_hw(3).is_empty());
        assert_eq!(bank.words_in_flight(), 1);
        bank.clear();
        assert_eq!(bank.words_in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        let _ = FslFifo::new(0);
    }

    #[test]
    fn ecc_corrects_every_single_bit_payload_flip() {
        for &word in &[FslWord::data(0), FslWord::control(0xdead_beef), FslWord::data(u32::MAX)] {
            let check = ecc_encode(word);
            for bit in 0..33 {
                let mut upset = word;
                if bit < 32 {
                    upset.data ^= 1 << bit;
                } else {
                    upset.control = !upset.control;
                }
                assert_eq!(ecc_decode(upset, check), (word, EccVerdict::Corrected), "bit {bit}");
            }
            assert_eq!(ecc_decode(word, check), (word, EccVerdict::Clean));
        }
    }

    #[test]
    fn ecc_flags_double_bit_flips_uncorrectable() {
        let word = FslWord::data(0x1234_5678);
        let check = ecc_encode(word);
        for (a, b) in [(0u32, 1u32), (3, 17), (5, 31), (0, 31)] {
            let mut upset = word;
            upset.data ^= (1 << a) | (1 << b);
            let (_, verdict) = ecc_decode(upset, check);
            assert_eq!(verdict, EccVerdict::Uncorrectable, "bits {a},{b}");
        }
    }

    #[test]
    fn ecc_fifo_corrects_in_flight_corruption() {
        let mut f = FslFifo::new(4);
        f.set_ecc(true);
        f.try_push(FslWord::data(0xaaaa_5555));
        f.try_push(FslWord::control(7));
        // Flip one bit of the buffered head; the check byte goes stale.
        f.word_mut(0).unwrap().data ^= 1 << 13;
        assert_eq!(f.try_pop(), Some(FslWord::data(0xaaaa_5555)), "flip corrected at pop");
        assert_eq!(f.try_pop(), Some(FslWord::control(7)));
        assert_eq!(f.stats().ecc_corrected, 1);
        assert_eq!(f.stats().ecc_uncorrectable, 0);
    }

    #[test]
    fn ecc_fifo_signals_uncorrectable_and_delivers_word() {
        let mut f = FslFifo::new(4);
        f.set_ecc(true);
        f.try_push(FslWord::data(0x0f0f_0f0f));
        let w = f.word_mut(0).unwrap();
        w.data ^= (1 << 2) | (1 << 21);
        assert_eq!(f.try_pop(), Some(FslWord::data(0x0f0f_0f0f ^ (1 << 2) ^ (1 << 21))));
        assert_eq!(f.stats().ecc_uncorrectable, 1);
    }

    #[test]
    fn ecc_survives_protocol_faults_and_snapshots() {
        let mut f = FslFifo::new(4);
        f.set_ecc(true);
        f.try_push(FslWord::data(1));
        f.try_push(FslWord::data(2));
        f.try_push(FslWord::data(3));
        assert!(f.duplicate_head());
        assert_eq!(f.remove_word(2), Some(FslWord::data(2)));
        let snap = f.save_state();
        let mut g = FslFifo::new(4);
        g.load_state(&snap);
        assert_eq!(g.try_pop(), Some(FslWord::data(1)));
        assert_eq!(g.try_pop(), Some(FslWord::data(1)));
        assert_eq!(g.try_pop(), Some(FslWord::data(3)));
        assert_eq!(g.stats().ecc_corrected, 0, "clean traffic stays clean");
        assert_eq!(g.stats().ecc_uncorrectable, 0);
    }
}
