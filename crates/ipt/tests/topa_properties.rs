//! `Topa` packet writes against a byte-at-a-time reference model.
//!
//! `Topa::write_packet` copies a packet that fits in the current region in
//! one step and sends everything else through the region-crossing path.
//! The model writes one byte at a time and crosses a region only when a
//! byte finds it full, which is the ToPA's definition. After every write,
//! both must agree on the retained bytes, the write count, and the PMI,
//! STOP and wrap state.

use fg_ipt::encode::TraceSink;
use fg_ipt::topa::{Topa, TopaFlags, TopaRegion};
use proptest::prelude::*;

/// One byte at a time: the retained trace is the newest bytes, as many as
/// the regions hold.
struct Model {
    sizes: Vec<usize>,
    flags: Vec<TopaFlags>,
    fill: Vec<usize>,
    cur: usize,
    history: Vec<u8>,
    wrapped: bool,
    pmi_pending: bool,
    stopped: bool,
}

impl Model {
    fn new(regions: &[(usize, TopaFlags)]) -> Model {
        Model {
            sizes: regions.iter().map(|r| r.0).collect(),
            flags: regions.iter().map(|r| r.1).collect(),
            fill: vec![0; regions.len()],
            cur: 0,
            history: Vec::new(),
            wrapped: false,
            pmi_pending: false,
            stopped: false,
        }
    }

    fn write_byte(&mut self, b: u8) {
        if self.stopped {
            return;
        }
        if self.fill[self.cur] == self.sizes[self.cur] {
            let flags = self.flags[self.cur];
            self.pmi_pending |= flags.int;
            if flags.stop {
                self.stopped = true;
                return;
            }
            self.cur = (self.cur + 1) % self.sizes.len();
            self.wrapped |= self.cur == 0;
            self.fill[self.cur] = 0;
        }
        self.fill[self.cur] += 1;
        self.history.push(b);
    }

    fn chronological(&self) -> &[u8] {
        let retained: usize = self.fill.iter().sum();
        &self.history[self.history.len() - retained..]
    }
}

/// A region layout: one to three regions of 4 or 8 KiB, each `INT` and
/// `STOP` with its own odds.
fn layout(seed: u64) -> Vec<(usize, TopaFlags)> {
    let n = 1 + (seed % 3) as usize;
    (0..n)
        .map(|i| {
            let bits = seed >> (8 * i + 2);
            let size = if bits & 1 == 0 { 4096 } else { 8192 };
            let int = bits & 2 != 0;
            let stop = bits & 0x1c == 0x1c;
            (size, TopaFlags { int, stop })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Packets of 1–16 bytes, many straddling region seams, through INT and
    /// STOP regions and wraps, with an occasional PMI acknowledge.
    #[test]
    fn topa_writes_match_a_byte_at_a_time_model(
        seed in any::<u64>(),
        ops in proptest::collection::vec((1usize..17, any::<u8>()), 200..3000),
    ) {
        let regions = layout(seed);
        let mut topa = Topa::new(
            regions.iter().map(|&(size, flags)| TopaRegion::new(size, flags)).collect(),
        )
        .unwrap();
        let mut model = Model::new(&regions);
        for (i, &(len, tag)) in ops.iter().enumerate() {
            if tag < 16 {
                prop_assert_eq!(topa.take_pmi(), std::mem::take(&mut model.pmi_pending));
            }
            let packet: Vec<u8> = (0..len).map(|k| tag.wrapping_add(k as u8)).collect();
            topa.write_packet(&packet);
            for &b in &packet {
                model.write_byte(b);
            }
            prop_assert_eq!(topa.total_written(), model.history.len() as u64, "write {}", i);
            prop_assert_eq!(topa.pmi_pending(), model.pmi_pending, "write {}", i);
            prop_assert_eq!(topa.stopped(), model.stopped, "write {}", i);
            prop_assert_eq!(topa.has_wrapped(), model.wrapped, "write {}", i);
            prop_assert!(topa.chronological() == model.chronological(), "bytes differ at write {}", i);
        }
    }
}
