//! # fg-ipt — Intel Processor Trace, modelled bit-for-bit
//!
//! This crate reproduces the IPT mechanics the FlowGuard paper (HPCA 2017)
//! builds on:
//!
//! * [`packet`] — packet types and SDM wire formats (TNT with stop-bit
//!   compression, TIP with last-IP compression, PSB/PSBEND, FUP,
//!   TIP.PGE/PGD, PIP, CBR, MODE, OVF, PAD);
//! * [`encode`] — the hardware-side [`encode::PacketEncoder`] with the TNT
//!   shift register and last-IP compression (why tracing costs "<1 bit per
//!   retired instruction");
//! * [`decode`] — the packet-level [`decode::PacketParser`], including PSB
//!   re-synchronisation for wrapped/partial buffers;
//! * [`topa`] — the Table-of-Physical-Addresses output scheme with INT/STOP
//!   regions and PMI generation;
//! * [`msr`] — the `IA32_RTIT_*` MSR model with CPL and CR3 filtering;
//! * [`fast`] — packet-level TIP/TNT extraction (FlowGuard's fast-path
//!   primitive, no binary needed): the scalar reference [`fast::scan`] and
//!   the vectorized scanner every drain runs;
//! * [`incremental`] — the checkpointed [`incremental::IncrementalScanner`]
//!   that resumes scanning where it stopped, so only appended bytes are
//!   ever decoded;
//! * [`stream`] — [`stream::StreamConsumer`], the one trace-consumption
//!   path: it drains the residue past its frontier straight from the
//!   ToPA's borrowed regions under a byte budget, whether at an endpoint
//!   check or concurrently with execution, so a syscall-time check is a
//!   frontier compare plus a residue scan;
//! * [`flow`] — the instruction-flow layer ([`flow::FlowDecoder`] over the
//!   resumable [`flow::FlowMachine`]): the full, slow decoder that walks the
//!   binary to reconstruct complete flow;
//! * [`shard`] — PSB-sharded flow decode: each PSB-delimited shard decodes
//!   independently and a sequential [`shard::Stitcher`] pass validates the
//!   seams, making the slow path parallel without losing precision.
//!
//! The asymmetry between [`fast::scan`] (cost ∝ trace bytes) and
//! [`flow::FlowDecoder::decode`] (cost ∝ instructions executed) is the
//! paper's central performance tension, and what the ITC-CFG is designed to
//! exploit.

#![deny(unsafe_code)]

pub mod decode;
pub mod encode;
pub mod fast;
pub mod flow;
pub mod incremental;
pub mod msr;
pub mod packet;
pub mod shard;
pub mod stream;
pub mod topa;

pub use decode::{find_psb, PacketAt, PacketError, PacketParser};
pub use encode::{PacketEncoder, TraceSink};
pub use fast::{scan_vectorized, Boundary, FastScan, TipEvent};
pub use flow::{BranchEvent, FlowDecoder, FlowError, FlowMachine, FlowTrace};
pub use incremental::{AppendInfo, IncrementalScanner};
pub use msr::{IptMsrs, RtitCtl};
pub use packet::{Packet, TntSeq};
pub use shard::{decode_shard, shard_spans, ShardDecode, StitchOutcome, Stitcher};
pub use stream::{DrainStats, StreamConsumer};
pub use topa::{Topa, TopaFlags, TopaRegion};
