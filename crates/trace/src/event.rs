//! Probe event recording and replay.
//!
//! [`RecordingProbe`] captures the exact event batch a computation emits
//! (every event, in order, with its arguments) while forwarding it
//! unchanged to the live probe; [`EventBatch::replay`] re-emits that
//! batch later. The tile- and frame-parallel encodes use the pair to
//! merge per-unit batches into the probe in canonical order (the
//! probe-merge contract), so downstream simulators observe precisely the
//! stream a serial encode would have produced.
//!
//! The same machinery doubles as a test oracle: two kernels are
//! probe-equivalent iff they record equal batches (`tests/` in
//! `vstress-codecs` pin the optimized kernels against naive references
//! this way).

use crate::kernel::Kernel;
use crate::probe::Probe;

/// One probe event with its full argument list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// [`Probe::set_kernel`].
    SetKernel(Kernel),
    /// [`Probe::alu`].
    Alu(u64),
    /// [`Probe::avx`].
    Avx(u64),
    /// [`Probe::sse`].
    Sse(u64),
    /// [`Probe::load`].
    Load {
        /// Synthetic data address.
        addr: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// [`Probe::store`].
    Store {
        /// Synthetic data address.
        addr: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// [`Probe::branch`].
    Branch {
        /// Synthetic site program counter.
        pc: u64,
        /// Outcome.
        taken: bool,
    },
}

/// An ordered batch of recorded probe events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    events: Vec<ProbeEvent>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events in emission order.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Moves `other`'s events to the end of this batch, leaving `other`
    /// empty — the canonical-merge building block: per-unit batches
    /// recorded on worker threads are concatenated in canonical
    /// (tile-major, row-major within tile) order to reconstruct the
    /// serial probe stream.
    pub fn append(&mut self, other: &mut EventBatch) {
        self.events.append(&mut other.events);
    }

    /// Concatenates `batches` in the given (canonical) order into one
    /// stream. `concat` of per-unit recordings equals one recording of
    /// the units run back-to-back — the merge contract the tile
    /// equivalence oracle pins.
    pub fn concat<'a, I: IntoIterator<Item = &'a EventBatch>>(batches: I) -> EventBatch {
        let mut out = EventBatch::new();
        for b in batches {
            out.events.extend_from_slice(&b.events);
        }
        out
    }

    /// Re-emits every recorded event, in order, into `probe`.
    ///
    /// Delegates to [`Probe::drain_batch`], so probes with a specialized
    /// batch drain (the pipeline model hoists its per-event kernel-cost
    /// lookups) get it automatically; for everything else the default
    /// drain dispatches the events one by one, exactly as this method
    /// always has.
    pub fn replay<P: Probe>(&self, probe: &mut P) {
        probe.drain_batch(&self.events);
    }
}

/// A probe adapter that records every event while forwarding it to the
/// wrapped probe.
///
/// The wrapped probe sees the identical stream it would see without the
/// recorder; [`RecordingProbe::into_batch`] then yields the captured
/// [`EventBatch`] for later replay or comparison.
#[derive(Debug)]
pub struct RecordingProbe<'a, P: Probe> {
    inner: &'a mut P,
    batch: EventBatch,
}

impl<'a, P: Probe> RecordingProbe<'a, P> {
    /// Wraps `inner`, recording everything forwarded to it.
    pub fn new(inner: &'a mut P) -> Self {
        RecordingProbe { inner, batch: EventBatch::new() }
    }

    /// Stops recording and returns the captured batch.
    pub fn into_batch(self) -> EventBatch {
        self.batch
    }

    /// Returns the events captured so far and keeps recording into a
    /// fresh batch — cuts one wrapped stream into consecutive batches.
    pub fn take_batch(&mut self) -> EventBatch {
        std::mem::take(&mut self.batch)
    }
}

impl<P: Probe> Probe for RecordingProbe<'_, P> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.batch.events.push(ProbeEvent::SetKernel(k));
        self.inner.set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.batch.events.push(ProbeEvent::Alu(n));
        self.inner.alu(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.batch.events.push(ProbeEvent::Avx(n));
        self.inner.avx(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.batch.events.push(ProbeEvent::Sse(n));
        self.inner.sse(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.batch.events.push(ProbeEvent::Load { addr, bytes });
        self.inner.load(addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.batch.events.push(ProbeEvent::Store { addr, bytes });
        self.inner.store(addr, bytes);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.batch.events.push(ProbeEvent::Branch { pc, taken });
        self.inner.branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.inner.retired()
    }

    #[inline]
    fn drain_batch(&mut self, events: &[ProbeEvent]) {
        // Record the whole slice, then hand the wrapped probe one batched
        // drain: the captured batch and the inner probe's final state are
        // identical to per-event push-and-forward.
        self.batch.events.extend_from_slice(events);
        self.inner.drain_batch(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{CountingProbe, NullProbe};

    fn drive<P: Probe>(p: &mut P) {
        p.set_kernel(Kernel::Sad);
        p.alu(3);
        p.avx(2);
        p.load(0x1000, 32);
        p.store(0x2000, 8);
        p.branch(0x500, true);
        p.sse(1);
    }

    #[test]
    fn recorder_forwards_and_captures_in_order() {
        let mut counting = CountingProbe::new();
        let mut rec = RecordingProbe::new(&mut counting);
        drive(&mut rec);
        let batch = rec.into_batch();
        assert_eq!(counting.retired(), 9, "forwarded stream must be unchanged");
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.events()[0], ProbeEvent::SetKernel(Kernel::Sad));
        assert_eq!(batch.events()[4], ProbeEvent::Store { addr: 0x2000, bytes: 8 });
    }

    #[test]
    fn take_batch_cuts_the_stream_into_consecutive_batches() {
        let mut counting = CountingProbe::new();
        let mut rec = RecordingProbe::new(&mut counting);
        drive(&mut rec);
        let first = rec.take_batch();
        drive(&mut rec);
        let second = rec.into_batch();
        assert_eq!(first.len(), 7);
        assert_eq!(first, second, "each cut holds only the events since the last one");
        assert_eq!(counting.retired(), 18, "cutting never interrupts forwarding");
    }

    #[test]
    fn replay_reproduces_the_identical_stream() {
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec);
        let batch = rec.into_batch();

        // Replay into a second recorder: the re-recorded batch must be
        // event-for-event equal (the probe-merge fidelity contract).
        let mut direct = CountingProbe::new();
        let mut rerec = RecordingProbe::new(&mut direct);
        batch.replay(&mut rerec);
        assert_eq!(rerec.into_batch(), batch);

        let mut reference = CountingProbe::new();
        drive(&mut reference);
        assert_eq!(direct.mix(), reference.mix());
        assert_eq!(direct.profile().count(Kernel::Sad), reference.profile().count(Kernel::Sad));
    }

    #[test]
    fn drain_batch_equals_per_event_dispatch() {
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec);
        let batch = rec.into_batch();

        let mut direct = CountingProbe::new();
        drive(&mut direct);
        let mut drained = CountingProbe::new();
        drained.drain_batch(batch.events());
        assert_eq!(direct, drained, "one drain call must equal per-event dispatch");
    }

    #[test]
    fn tee_drain_feeds_both_sides_identically() {
        use crate::probe::TeeProbe;
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec);
        let batch = rec.into_batch();

        let mut per_event = TeeProbe::new(CountingProbe::new(), CountingProbe::new());
        drive(&mut per_event);
        let mut batched = TeeProbe::new(CountingProbe::new(), CountingProbe::new());
        batched.drain_batch(batch.events());
        let (pa, pb) = per_event.into_parts();
        let (ba, bb) = batched.into_parts();
        assert_eq!(pa, ba);
        assert_eq!(pb, bb);
    }

    #[test]
    fn recording_drain_captures_and_forwards() {
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec);
        let batch = rec.into_batch();

        let mut inner = CountingProbe::new();
        let mut rerec = RecordingProbe::new(&mut inner);
        rerec.drain_batch(batch.events());
        assert_eq!(rerec.into_batch(), batch, "batched drain must capture the full stream");
        let mut reference = CountingProbe::new();
        drive(&mut reference);
        assert_eq!(inner, reference, "batched drain must forward the full stream");
    }

    #[test]
    fn concat_of_split_recordings_equals_one_recording() {
        // Record the same work twice: once as a single stream, once as
        // two per-"unit" batches merged in order.
        let mut null = NullProbe;
        let mut whole = RecordingProbe::new(&mut null);
        drive(&mut whole);
        drive(&mut whole);
        let whole = whole.into_batch();

        let mut a = RecordingProbe::new(&mut null);
        drive(&mut a);
        let a = a.into_batch();
        let mut b = RecordingProbe::new(&mut null);
        drive(&mut b);
        let mut b = b.into_batch();

        assert_eq!(EventBatch::concat([&a, &b]), whole);
        let mut merged = a;
        merged.append(&mut b);
        assert_eq!(merged, whole);
        assert!(b.is_empty(), "append drains the source batch");
    }

    #[test]
    fn liveness_reporting() {
        assert!(!NullProbe.is_live());
        assert!(CountingProbe::new().is_live());
        let mut null = NullProbe;
        assert!(RecordingProbe::new(&mut null).is_live());
        let r: &mut NullProbe = &mut null;
        assert!(!r.is_live(), "&mut forwards liveness");
    }
}
